package share_test

import (
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/share"
)

func key(t *testing.T, src string, mode aggregate.Mode, force bool) string {
	t.Helper()
	return share.Key(query.MustParse(src), mode, force)
}

// TestSignatureKeys pins the sharing policy: RETURN divergence shares,
// every trend-formation difference does not.
func TestSignatureKeys(t *testing.T) {
	base := "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5"
	same := []string{
		// Different RETURN aggregates over the same trend set.
		"RETURN SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
		"RETURN COUNT(*), MIN(S.price), AVG(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
	}
	diff := []string{
		// Pattern shape.
		"RETURN COUNT(*) PATTERN SEQ(Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
		// Predicate set.
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price < NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
		// Equivalence attributes.
		"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
		// Grouping.
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		// Window plan.
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 10",
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company",
		// Selection semantics.
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5 SEMANTICS skip-till-next-match",
		// Alias renaming (conservative: predicates reference aliases).
		"RETURN COUNT(*) PATTERN Stock T+ WHERE [company] AND T.price > NEXT(T).price GROUP-BY company WITHIN 20 SLIDE 5",
	}
	bk := key(t, base, aggregate.ModeNative, false)
	for _, src := range same {
		if got := key(t, src, aggregate.ModeNative, false); got != bk {
			t.Errorf("RETURN-divergent statement has different key:\n%s\nvs\n%s", got, bk)
		}
	}
	for _, src := range diff {
		if got := key(t, src, aggregate.ModeNative, false); got == bk {
			t.Errorf("trend-formation-divergent statement %q shares the key", src)
		}
	}
	// Arithmetic mode and scan discipline split the key too.
	if key(t, base, aggregate.ModeExact, false) == bk {
		t.Error("exact-mode statement shares the native key")
	}
	if key(t, base, aggregate.ModeNative, true) == bk {
		t.Error("forced-scan statement shares the folding key")
	}
}
