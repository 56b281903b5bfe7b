// Traffic: the paper's query Q3 — detect traffic jams that are NOT
// caused by accidents (paper §1), demonstrating negation.
//
// The pattern SEQ(NOT Accident A, Position P+) counts, per road
// segment, the continually-slowing-down vehicle trajectories with no
// accident earlier in the window: a match of the negative sub-pattern
// invalidates later position reports (paper §5, Case 3). The query
// returns both the number of such trajectories and the average speed.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/greta-cep/greta"
)

func main() {
	stmt, err := greta.Compile(`
		RETURN segment, COUNT(*), AVG(P.speed)
		PATTERN SEQ(NOT Accident A, Position P+)
		WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed
		GROUP-BY segment
		WITHIN 30 seconds SLIDE 10 seconds`)
	if err != nil {
		log.Fatal(err)
	}

	cfg := greta.DefaultLinearRoad(60000)
	cfg.AccidentProb = 0.0005
	events := greta.LinearRoadStream(cfg)

	rt := greta.NewRuntime()
	h, err := rt.Register(stmt)
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.Run(context.Background(), greta.NewSliceStream(events)); err != nil {
		log.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("slow-down trajectories per window and segment (accident-free):")
	results := h.Delivered()
	for i, r := range results {
		if i == 25 {
			fmt.Printf("  ... (%d more results)\n", len(results)-i)
			break
		}
		fmt.Printf("  window %3d segment=%-6s trajectories=%-12g avg speed=%.1f\n",
			r.Wid, r.Group, r.Values[0], r.Values[1])
	}
	st := h.Stats()
	fmt.Printf("\nprocessed %d events across %d partitions\n", st.Events, st.Partitions)
}
