package core

import (
	"math/big"
	"math/bits"

	"github.com/greta-cep/greta/internal/aggregate"
)

// compose is the composite engine's window fold: it combines one
// (group, window)'s branch and product partials — parts is in slot
// order, branches first — into the final payload (paper §9), or nil when
// that payload is zero and the window has nothing to report:
//
//   - Disjunction (and Kleene star / optional, which expand into
//     disjunctions of positive branches): inclusion–exclusion over
//     branch counts — Σ C(branch) − Σ C(pairwise ∩) + Σ C(triple ∩) − …
//     The intersection counts come from product-template engines.
//     MIN/MAX fold over the branches only, since they are monotone over
//     trend sets.
//
//   - Conjunction (Pi AND Pj): pairs of distinct trends. With exclusive
//     counts Ci = COUNT(Pi)−Cij, Cj = COUNT(Pj)−Cij, and Cij the
//     intersection count, COUNT = Ci·Cj + Ci·Cij + Cj·Cij + C(Cij, 2).
func (e *Engine) compose(parts []*aggregate.Payload) *aggregate.Payload {
	def := e.plan.Def()
	var payload *aggregate.Payload
	if e.plan.Conjunct {
		payload = e.composeConjunction(def, parts[0], parts[1], parts[2])
	} else {
		payload = def.New()
		for _, p := range parts[:e.branches] {
			def.AddSigned(payload, p, 1)
		}
		for i, mask := range e.plan.Masks {
			sign := 1
			if bits.OnesCount(mask)%2 == 0 {
				sign = -1
			}
			def.AddSigned(payload, parts[e.branches+i], sign)
		}
	}
	if def.Zero(payload) {
		return nil
	}
	return payload
}

// composeConjunction applies the paper's conjunction count formula.
func (e *Engine) composeConjunction(def *aggregate.Def, pi, pj, pij *aggregate.Payload) *aggregate.Payload {
	out := def.New()
	if def.Mode == aggregate.ModeExact {
		ci := def.ExactCount(pi)
		cj := def.ExactCount(pj)
		cij := def.ExactCount(pij)
		ci.Sub(ci, cij)
		cj.Sub(cj, cij)
		total := new(big.Int).Mul(ci, cj)
		total.Add(total, new(big.Int).Mul(ci, cij))
		total.Add(total, new(big.Int).Mul(cj, cij))
		choose2 := new(big.Int).Mul(cij, new(big.Int).Sub(cij, big.NewInt(1)))
		choose2.Rsh(choose2, 1)
		total.Add(total, choose2)
		def.SetCount(out, total)
		return out
	}
	var ci, cj, cij uint64
	if pi != nil {
		ci = pi.Count
	}
	if pj != nil {
		cj = pj.Count
	}
	if pij != nil {
		cij = pij.Count
	}
	ci -= cij
	cj -= cij
	// cij*(cij-1)/2 is C(cij, 2); for cij == 0 the product is zero.
	out.Count = ci*cj + ci*cij + cj*cij + cij*(cij-1)/2
	return out
}
