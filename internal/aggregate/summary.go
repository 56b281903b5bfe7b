package aggregate

// Summary is the mergeable fold of many vertex payload sets: per
// window, the AddPred-combination of every contributing payload, plus
// the bookkeeping needed to account logical graph edges exactly when a
// whole summary is folded at once (paper §7 Time Panes, generalized to
// arbitrary subtree summaries of a Vertex Tree).
//
// All vertices folded into one Summary must share the same window
// range [FirstWid, FirstWid+k): the runtime guarantees this because a
// Vertex Tree holds the vertices of one Time Pane, and a pane never
// straddles a window boundary (pane size divides gcd(Within, Slide)).
// SummaryAdd/SummaryMerge report a shape mismatch instead of folding
// garbage, so callers can fall back to per-vertex scanning.
//
// Summaries are mergeable but not subtractable: Min/Max slots (and
// MaxStart) are monotone folds with no inverse. Callers that need
// signed composition of additive fields use Def.AddSigned instead;
// summary maintenance therefore only ever adds, merges, or rebuilds —
// when invalidation watermarks (paper Definition 5) retract stored
// contributions, the runtime rebuilds the affected summaries in place
// instead of subtracting (see core's watermark-versioned fold path).
//
// SummaryAdd optionally takes a per-window validity mask so a rebuild
// under invalidation watermarks folds only the payloads that are still
// valid; Last/N then count last *valid* contributing windows, keeping
// EdgesFrom exact for the filtered contents.
type Summary struct {
	FirstWid int64
	// Sums[i] is the AddPred-fold of all contributing payloads of
	// window FirstWid+i; nil when no vertex contributes there.
	Sums []*Payload
	// Last[i] counts vertices whose newest contributing window is
	// FirstWid+i. Because an event's candidate window range always ends
	// at or after the range of any stored predecessor, the number of
	// predecessors connecting to an event whose range starts at window
	// FirstWid+j is exactly sum(Last[j:]) — the logical edge count.
	Last []uint32
	// N is the total number of vertices folded in (sum of Last).
	N uint32
}

// Empty reports whether no vertex has been folded in.
func (s *Summary) Empty() bool { return len(s.Sums) == 0 }

// shape prepares s to accept vertices of window range
// [firstWid, firstWid+k), reusing backing arrays. It reports false on
// a range mismatch with already-folded contents.
func (s *Summary) shape(firstWid int64, k int) bool {
	if len(s.Sums) == 0 {
		s.FirstWid = firstWid
		if cap(s.Sums) >= k {
			s.Sums = s.Sums[:k]
			s.Last = s.Last[:k]
			for i := 0; i < k; i++ {
				s.Sums[i] = nil
				s.Last[i] = 0
			}
		} else {
			s.Sums = make([]*Payload, k)
			s.Last = make([]uint32, k)
		}
		return true
	}
	return s.FirstWid == firstWid && len(s.Sums) == k
}

// SummaryAdd folds one vertex's per-window payloads into s, drawing
// payload storage from pool: block[i] is the payload of window
// firstWid+i, folded when pres has entry i. valid, when non-nil, masks
// the vertex's windows: payloads of windows with valid[i] == false are
// skipped (the vertex is invalidated there by a watermark), and Last/N
// account only the windows that were folded. It reports ok == false
// when the vertex's window range does not match the summary's (the
// caller must then treat the summary as unusable); created is the
// number of payloads newly drawn from pool, so callers can account
// summary storage.
func (d *Def) SummaryAdd(pool *Pool, s *Summary, firstWid int64, block []Payload, pres *Presence, valid []bool) (created int, ok bool) {
	if !s.shape(firstWid, len(block)) {
		return 0, false
	}
	last := -1
	for i := range block {
		if !pres.Has(i) || (valid != nil && !valid[i]) {
			continue
		}
		sp := s.Sums[i]
		if sp == nil {
			sp = pool.Get()
			s.Sums[i] = sp
			created++
		}
		d.AddPred(sp, &block[i])
		last = i
	}
	if last >= 0 {
		s.Last[last]++
		s.N++
	}
	return created, true
}

// SummaryMerge folds src into dst (dst takes storage from pool; src is
// not modified). It reports ok == false on a window-range mismatch;
// created counts payloads newly drawn from pool.
func (d *Def) SummaryMerge(pool *Pool, dst, src *Summary) (created int, ok bool) {
	if src.Empty() {
		return 0, true
	}
	if !dst.shape(src.FirstWid, len(src.Sums)) {
		return 0, false
	}
	for i, sp := range src.Sums {
		if sp == nil {
			continue
		}
		dp := dst.Sums[i]
		if dp == nil {
			dp = pool.Get()
			dst.Sums[i] = dp
			created++
		}
		d.AddPred(dp, sp)
	}
	for i, c := range src.Last {
		dst.Last[i] += c
	}
	dst.N += src.N
	return created, true
}

// SummaryClear empties s, returning its payloads to pool and keeping
// the backing arrays for reuse. It returns the number of payloads
// released, mirroring SummaryAdd/SummaryMerge's created counts.
func (d *Def) SummaryClear(pool *Pool, s *Summary) (released int) {
	for i, sp := range s.Sums {
		if sp != nil {
			pool.Put(sp)
			s.Sums[i] = nil
			released++
		}
	}
	s.Sums = s.Sums[:0]
	s.Last = s.Last[:0]
	s.N = 0
	return released
}

// EdgesFrom returns the number of folded vertices that contribute at
// least one payload in windows >= wid (see Last).
func (s *Summary) EdgesFrom(wid int64) uint64 {
	i := int(wid - s.FirstWid)
	if i < 0 {
		i = 0
	}
	var n uint64
	for ; i < len(s.Last); i++ {
		n += uint64(s.Last[i])
	}
	return n
}
