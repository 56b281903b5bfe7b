package core

import (
	"runtime"
	"testing"
)

// TestSegFanClaim: a goroutine takes the sources that last ran on its
// processor, dearest (lowest index) first, then whatever is left, dearest
// first, and each source once.
func TestSegFanClaim(t *testing.T) {
	var f segFan
	f.claims = make([]fanClaim, 5)
	for i, cpu := range []int{1, 0, 1, 0, 0} {
		f.claims[i].cpu = cpu
	}
	var got []int
	for _, cpu := range []int{0, 1, 0, 1, 1, 0, 1} {
		got = append(got, f.claim(cpu))
	}
	want := []int{1, 0, 3, 2, 4, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claims %v, want %v", got, want)
		}
	}
}

// TestCurrentCPU: where getcpu(2) is known, a thread's processor is read.
func TestCurrentCPU(t *testing.T) {
	cpu := currentCPU()
	if runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") && cpu < 0 {
		t.Fatalf("currentCPU() = %d on %s/%s", cpu, runtime.GOOS, runtime.GOARCH)
	}
	t.Logf("currentCPU() = %d", cpu)
}
