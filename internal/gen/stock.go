package gen

import (
	"fmt"
	"math/rand"

	"github.com/greta-cep/greta/internal/event"
)

// StockConfig parameterizes the synthetic NYSE-style transaction
// stream. The paper uses the real NYSE data set (225k transactions of
// 10 companies, replicated 10×); this generator reproduces its schema
// (volume, price, second timestamps, buy/sell type, company, sector,
// transaction id) with a random-walk price process, so per-company
// sub-streams exhibit the local fluctuations that drive Kleene match
// explosion.
type StockConfig struct {
	Events    int
	Companies int
	Sectors   int
	// Rate is events per second (timestamp granularity is seconds, as in
	// the paper's data set).
	Rate int
	// StartPrice and MaxTick control the random walk: each transaction
	// moves the company price by a uniform tick in [-MaxTick, +MaxTick].
	StartPrice float64
	MaxTick    float64
	// DownBias in [0,1) skews the walk downward, producing longer
	// down-trends for Q1-style queries.
	DownBias float64
	// HaltProb is the per-event probability of a trading-halt event
	// (type Halt) for the same company, used by queries with negative
	// sub-patterns (the Fig. 15 experiment).
	HaltProb float64
	Seed     int64
}

// DefaultStock mirrors the paper's setup: 10 companies, 2 sectors.
func DefaultStock(events int) StockConfig {
	return StockConfig{
		Events:     events,
		Companies:  10,
		Sectors:    2,
		Rate:       500,
		StartPrice: 100,
		MaxTick:    2,
		DownBias:   0.1,
		Seed:       1,
	}
}

// Stock generates the transaction stream.
func Stock(cfg StockConfig) []*event.Event {
	if cfg.Rate <= 0 {
		cfg.Rate = 500
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	price := make([]float64, cfg.Companies)
	for i := range price {
		price[i] = cfg.StartPrice
	}
	evs := make([]*event.Event, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		c := rng.Intn(cfg.Companies)
		if cfg.HaltProb > 0 && rng.Float64() < cfg.HaltProb {
			ev := &event.Event{
				ID:   uint64(i + 1),
				Type: "Halt",
				Time: event.Time(i / cfg.Rate),
				Str: map[string]string{
					"company": fmt.Sprintf("co%02d", c),
					"sector":  fmt.Sprintf("sec%d", c%cfg.Sectors),
				},
			}
			haltSchema.Bind(ev)
			evs = append(evs, ev)
			continue
		}
		tick := (rng.Float64()*2 - 1 - cfg.DownBias) * cfg.MaxTick
		price[c] = Clamp(price[c]+tick, 1, 10*cfg.StartPrice)
		side := "sell"
		if rng.Intn(2) == 0 {
			side = "buy"
		}
		ev := &event.Event{
			ID:   uint64(i + 1),
			Type: "Stock",
			Time: event.Time(i / cfg.Rate),
			Attrs: map[string]float64{
				"price":  price[c],
				"volume": float64(UniformInt(rng, 1, 1000)),
			},
			Str: map[string]string{
				"company": fmt.Sprintf("co%02d", c),
				"sector":  fmt.Sprintf("sec%d", c%cfg.Sectors),
				"side":    side,
			},
		}
		stockSchema.Bind(ev)
		evs = append(evs, ev)
	}
	return evs
}

// stockSchema / haltSchema are the ingest schemas: generated events are
// bound to them so the runtime reads attributes by dense slot.
var (
	stockSchema = &event.Schema{
		Type:    "Stock",
		Numeric: []string{"price", "volume"},
		Strings: []string{"company", "sector", "side"},
	}
	haltSchema = &event.Schema{
		Type:    "Halt",
		Strings: []string{"company", "sector"},
	}
)

// StockSchemas describes the generated event types. The pointers are
// stable package-level schemas (the same ones Bind attaches), so
// batches built over them (greta.NewBatch) keep accessor slot caches
// warm.
func StockSchemas() []*event.Schema {
	return []*event.Schema{stockSchema, haltSchema}
}
