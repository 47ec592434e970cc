package cut

import (
	"fmt"
	"math/bits"
	"sort"

	"gossip/internal/graph"
	"gossip/internal/par"
)

// exactBlockBits sets the size of one enumeration block: a block walks the
// low exactBlockBits bits of the cut mask in Gray-code order with the bits
// above fixed to its index, and blocks fan out over internal/par.
const exactBlockBits = 10

// rungBest is the best cut a walk has seen at one rung: cut/den is its
// conductance and mask its node set. noCut, 1/0, reads as +Inf: any cut
// with den > 0 beats it, and it stays +Inf when no cut does.
type rungBest struct {
	cut, den int
	mask     uint64
}

var noCut = rungBest{cut: 1}

// offer keeps (cut, den, mask) if its conductance is smaller, or equal with a
// smaller mask. Cross-multiplication decides exactly what comparing the
// float64 quotients would: with n <= MaxExactN, cuts and volumes are below
// 2^10, so distinct ratios never round to the same float64.
func (r *rungBest) offer(cut, den int, mask uint64) {
	lhs, rhs := cut*r.den, r.cut*den
	if lhs < rhs || lhs == rhs && mask < r.mask {
		*r = rungBest{cut, den, mask}
	}
}

// exactLadder returns, for each ℓ of the ascending list ells, a cut
// minimizing the weight-ℓ conductance, by one enumeration of all cuts. Node 0
// stays on the left; in Gray-code order each step flips one node u, the
// left volume moves by ±deg(u), and the cut count of each latency class
// (edges with latency in (ells[k-1], ells[k]]) moves by
// popcount(adj_k[u] &^ S) − popcount(adj_k[u] & S), signed by u's move;
// rung k's cut is the prefix sum over classes 0..k. Ties break to the
// numerically smallest mask and blocks merge in index order, so the result
// does not depend on the worker count. A rung with no cut of nonzero volume
// on both sides gets φ = +Inf and an empty Set.
func exactLadder(g *graph.Graph, ells []int) ([]Certificate, error) {
	n, nc := g.N(), len(ells)
	if n < 2 {
		return nil, fmt.Errorf("cut: need n >= 2, got %d", n)
	}
	if n > MaxExactN {
		return nil, fmt.Errorf("%w: n=%d > %d", ErrTooLarge, n, MaxExactN)
	}
	adj := make([]uint64, n*nc) // adj[u*nc+k]: u's neighbours in class k
	for _, e := range g.Edges() {
		if k := sort.SearchInts(ells, e.Latency); k < nc {
			adj[e.U*nc+k] |= 1 << uint(e.V)
			adj[e.V*nc+k] |= 1 << uint(e.U)
		}
	}
	volAll := 2 * g.M()
	free := n - 1 // mask bits 1..n-1; bit 0 (node 0) is always set
	low := min(free, exactBlockBits)
	blocks, _ := par.Map(1<<uint(free-low), func(b int) ([]rungBest, error) {
		best, cut := make([]rungBest, nc), make([]int, nc)
		for k := range best {
			best[k] = noCut
		}
		set := uint64(1) | uint64(b)<<uint(low+1)
		vol := 0
		for m := set; m != 0; m &= m - 1 {
			u := bits.TrailingZeros64(m)
			vol += g.Degree(u)
			for k := range cut {
				cut[k] += bits.OnesCount64(adj[u*nc+k] &^ set)
			}
		}
		for j := 1; ; j++ {
			if den := min(vol, volAll-vol); den > 0 {
				c := 0
				for k := range best {
					c += cut[k]
					best[k].offer(c, den, set)
				}
			}
			if j == 1<<uint(low) {
				return best, nil
			}
			u := bits.TrailingZeros(uint(j)) + 1 // Gray code: step j flips free bit tz(j)
			set ^= 1 << uint(u)
			sign := 1 // u joined the left side
			if set>>uint(u)&1 == 0 {
				sign = -1
			}
			vol += sign * g.Degree(u)
			for k := range cut {
				a := adj[u*nc+k]
				cut[k] += sign * (bits.OnesCount64(a&^set) - bits.OnesCount64(a&set))
			}
		}
	})
	certs := make([]Certificate, nc)
	for k := range certs {
		r := noCut
		for _, blk := range blocks {
			r.offer(blk[k].cut, blk[k].den, blk[k].mask)
		}
		certs[k] = Certificate{Ell: ells[k], Phi: float64(r.cut) / float64(r.den)}
		for m := r.mask; m != 0; m &= m - 1 {
			certs[k].Set = append(certs[k].Set, bits.TrailingZeros64(m))
		}
	}
	return certs, nil
}
