package bench

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
)

var payloadSink *aggregate.Payload

// TestStateBytesLayout: the Fig. 14–17 memory panels price GRETA's state
// at the size of a core.Vertex a vertex and, a window payload, at the
// heap bytes its definition's payloads take, so a change to either
// layout moves the estimate with it.
func TestStateBytesLayout(t *testing.T) {
	if got, want := stateBytes(core.Stats{PeakVertices: 1}, &aggregate.Def{}), float64(reflect.TypeFor[core.Vertex]().Size()); got != want {
		t.Fatalf("a vertex is priced at %v bytes, a core.Vertex is %v", got, want)
	}
	kinds := []aggregate.SlotKind{aggregate.SlotSum, aggregate.SlotCountE, aggregate.SlotMin, aggregate.SlotMax}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// One slot value, 8 bytes, would be measured through the tiny
	// allocator, which the race detector turns off: a width whose values
	// fill a size class of their own reads the same in both builds.
	for _, n := range []int{0, 2, 3, 4} {
		def := &aggregate.Def{}
		for _, k := range kinds[:n] {
			def.AddSlot(aggregate.Slot{Kind: k, Type: "A", Attr: "x"})
		}
		const payloads = 1000
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		total := ms.TotalAlloc
		for range payloads {
			payloadSink = def.New()
		}
		runtime.ReadMemStats(&ms)
		heap := float64((ms.TotalAlloc - total) / payloads)
		if got := stateBytes(core.Stats{PeakPayloads: 1}, def); got != heap {
			t.Errorf("a payload of %d native slots is priced at %v bytes, takes %v", n, got, heap)
		}
	}
}
