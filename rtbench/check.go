package main

// The independent admission checker. It shares no code with the
// daemon's admission plane: routes come from a breadth-first search over
// the benchmark's own copy of the topology and the trunk health it has
// commanded, and feasibility from its own exact-integer
// processor-demand test.

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
)

// task is one channel's share of a directed link: C slots every P slots,
// each within budget D.
type task struct{ C, P, D int64 }

// maxJobs caps the job deadlines one feasibility test enumerates.
const maxJobs = 20_000_000

// edfFeasible runs the processor-demand test on one link: utilization
// at most one, and h(t) <= t at every absolute deadline t up to a bound
// past which the demand pattern cannot first exceed supply. It returns
// the first violating t (0 when utilization exceeds one).
//
// All arithmetic is on integers. The bound is the smaller of H + Dmax
// (H = lcm of the periods; h(t+H) = h(t) + U*H for t >= Dmax) and, when
// U < 1, the Baruah-Mok-Rosier bound max(Dmax, sum (P-D)*U_i / (1-U)).
func edfFeasible(ts []task) (ok bool, violationAt int64, err error) {
	if len(ts) == 0 {
		return true, 0, nil
	}
	h := big.NewInt(1)
	var dmax int64
	for _, t := range ts {
		if t.C <= 0 || t.P <= 0 || t.D <= 0 {
			return false, 0, fmt.Errorf("invalid task %+v", t)
		}
		p := big.NewInt(t.P)
		g := new(big.Int).GCD(nil, nil, h, p)
		h.Mul(h, p.Div(p, g))
		if t.D > dmax {
			dmax = t.D
		}
	}
	// U <= 1  <=>  sum C_i * (H / P_i) <= H.
	work := new(big.Int)
	lag := new(big.Int) // sum (P_i - D_i) * C_i * (H / P_i)
	for _, t := range ts {
		share := new(big.Int).Div(h, big.NewInt(t.P))
		share.Mul(share, big.NewInt(t.C))
		work.Add(work, share)
		lag.Add(lag, new(big.Int).Mul(share, big.NewInt(t.P-t.D)))
	}
	switch work.Cmp(h) {
	case 1:
		return false, 0, nil
	}
	bound := new(big.Int).Add(h, big.NewInt(dmax))
	if work.Cmp(h) < 0 {
		la := big.NewInt(dmax)
		if lag.Sign() > 0 {
			den := new(big.Int).Sub(h, work)
			q, r := new(big.Int).QuoRem(lag, den, new(big.Int))
			if r.Sign() > 0 {
				q.Add(q, big.NewInt(1))
			}
			if q.Cmp(la) > 0 {
				la = q
			}
		}
		if la.Cmp(bound) < 0 {
			bound = la
		}
	}
	if !bound.IsInt64() {
		return false, 0, errors.New("demand bound overflows int64")
	}
	limit := bound.Int64()

	type job struct{ at, c int64 }
	var n int64
	for _, t := range ts {
		if t.D <= limit {
			n += (limit-t.D)/t.P + 1
		}
	}
	if n > maxJobs {
		return false, 0, fmt.Errorf("demand test needs %d job deadlines (limit %d)", n, maxJobs)
	}
	jobs := make([]job, 0, n)
	for _, t := range ts {
		for at := t.D; at <= limit; at += t.P {
			jobs = append(jobs, job{at, t.C})
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].at < jobs[j].at })
	var demand int64
	for i, j := range jobs {
		demand += j.c
		if i+1 < len(jobs) && jobs[i+1].at == j.at {
			continue // h(t) counts every job due at t
		}
		if demand > j.at {
			return false, j.at, nil
		}
	}
	return true, 0, nil
}

// checker holds the benchmark's own model of the network: the topology,
// which trunks it has failed, and the route of every live channel.
type checker struct {
	topo *Topology
	down map[[2]uint16]bool // failed trunks, key (min, max)
	live map[uint32]*tracked
}

type tracked struct {
	spec  Spec
	route []string // directed links, named as the daemon names them
}

func newChecker(t *Topology) *checker {
	return &checker{topo: t, down: map[[2]uint16]bool{}, live: map[uint32]*tracked{}}
}

func trunkKey(a, b uint16) [2]uint16 {
	if a > b {
		a, b = b, a
	}
	return [2]uint16{a, b}
}

func swName(s uint16) string   { return fmt.Sprintf("sw%d", s) }
func nodeName(n uint16) string { return fmt.Sprintf("n%d", n) }

// route derives the directed links a channel from src to dst takes
// under the current trunk health. On a fabric the route must be the
// unique shortest path; anything else is an error, since the checker
// could not know which of several paths the daemon picked.
func (c *checker) route(src, dst uint16) ([]string, error) {
	if c.topo.Star() {
		return []string{fmt.Sprintf("link(%d,up)", src), fmt.Sprintf("link(%d,down)", dst)}, nil
	}
	a, okA := c.topo.Home[src]
	b, okB := c.topo.Home[dst]
	if !okA || !okB {
		return nil, fmt.Errorf("node %d or %d is not attached", src, dst)
	}
	// Breadth-first search counting shortest paths.
	dist := map[uint16]int{a: 0}
	paths := map[uint16]int{a: 1}
	prev := map[uint16]uint16{}
	queue := []uint16{a}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, tr := range c.topo.Trunks {
			var nb uint16
			switch s {
			case tr[0]:
				nb = tr[1]
			case tr[1]:
				nb = tr[0]
			default:
				continue
			}
			if c.down[trunkKey(tr[0], tr[1])] {
				continue
			}
			d, seen := dist[nb]
			if !seen {
				dist[nb] = dist[s] + 1
				paths[nb] = paths[s]
				prev[nb] = s
				queue = append(queue, nb)
			} else if d == dist[s]+1 {
				paths[nb] += paths[s]
			}
		}
	}
	if _, ok := dist[b]; !ok {
		return nil, fmt.Errorf("no route from n%d to n%d", src, dst)
	}
	if paths[b] != 1 {
		return nil, fmt.Errorf("%d shortest routes from n%d to n%d", paths[b], src, dst)
	}
	sws := []uint16{b}
	for s := b; s != a; {
		s = prev[s]
		sws = append(sws, s)
	}
	r := []string{nodeName(src) + "→" + swName(a)}
	for i := len(sws) - 1; i > 0; i-- {
		r = append(r, swName(sws[i])+"→"+swName(sws[i-1]))
	}
	return append(r, swName(b)+"→"+nodeName(dst)), nil
}

// checkBudgets checks one channel's granted per-hop budgets against its
// route: one budget per hop, summing to exactly D, none below C.
func checkBudgets(s Spec, route []string, budgets []int64) error {
	if len(budgets) != len(route) {
		return fmt.Errorf("%+v: %d budgets for a %d-hop route", s, len(budgets), len(route))
	}
	var sum int64
	for _, b := range budgets {
		if b < s.C {
			return fmt.Errorf("%+v: budget %d below C", s, b)
		}
		sum += b
	}
	if sum != s.D {
		return fmt.Errorf("%+v: budgets %v sum to %d, not D", s, budgets, sum)
	}
	return nil
}

// admit records an accepted channel after checking its budgets.
func (c *checker) admit(id uint32, s Spec, budgets []int64) error {
	if _, dup := c.live[id]; dup {
		return fmt.Errorf("channel id %d granted twice", id)
	}
	r, err := c.route(s.Src, s.Dst)
	if err != nil {
		return err
	}
	if err := checkBudgets(s, r, budgets); err != nil {
		return err
	}
	c.live[id] = &tracked{spec: s, route: r}
	return nil
}

// release forgets a released channel.
func (c *checker) release(id uint32) error {
	if _, ok := c.live[id]; !ok {
		return fmt.Errorf("released channel %d is not live", id)
	}
	delete(c.live, id)
	return nil
}

// checkRejection checks that a feasibility rejection names a link on the
// request's route, at the hop the daemon reports. Hop -1 is the daemon's
// mark for a link off the route that failed because the request
// repartitioned channels already there (the load-adaptive schemes move
// every channel sharing a touched link, and the kernel also re-derives
// partitions it had to keep back after a release). Such a link must
// carry live channels; the rejection is reported as off-route.
func (c *checker) checkRejection(s Spec, link string, hop int) (offRoute bool, err error) {
	r, err := c.route(s.Src, s.Dst)
	if err != nil {
		return false, err
	}
	if hop >= 0 {
		if hop >= len(r) || r[hop] != link {
			return false, fmt.Errorf("%+v rejected at %s hop %d, route is %v", s, link, hop, r)
		}
		return false, nil
	}
	for _, l := range r {
		if l == link {
			return false, fmt.Errorf("%+v rejected at %s without a hop, but the link is on its route", s, link)
		}
	}
	for _, t := range c.live {
		for _, l := range t.route {
			if l == link {
				return true, nil
			}
		}
	}
	return false, fmt.Errorf("%+v rejected at %s, which is off its route %v and carries no channel", s, link, r)
}

// listed is one channel of the daemon's GET /v1/channels.
type listed struct {
	ID      uint32
	Spec    Spec
	Budgets []int64
}

// checkSnapshot compares the daemon's channel listing with the model and
// checks every link of the listed state for EDF feasibility with the
// granted budgets. It returns the number of links checked.
func (c *checker) checkSnapshot(chs []listed) (int, error) {
	if len(chs) != len(c.live) {
		return 0, fmt.Errorf("daemon lists %d channels, %d are live (accepted minus released)", len(chs), len(c.live))
	}
	links := map[string][]task{}
	for _, ch := range chs {
		t, ok := c.live[ch.ID]
		if !ok {
			return 0, fmt.Errorf("daemon lists channel %d, which is not live", ch.ID)
		}
		if t.spec != ch.Spec {
			return 0, fmt.Errorf("channel %d: daemon spec %+v, requested %+v", ch.ID, ch.Spec, t.spec)
		}
		if err := checkBudgets(t.spec, t.route, ch.Budgets); err != nil {
			return 0, fmt.Errorf("channel %d: %w", ch.ID, err)
		}
		for i, l := range t.route {
			links[l] = append(links[l], task{C: t.spec.C, P: t.spec.P, D: ch.Budgets[i]})
		}
	}
	for l, ts := range links {
		ok, at, err := edfFeasible(ts)
		if err != nil {
			return 0, fmt.Errorf("link %s: %w", l, err)
		}
		if !ok {
			return 0, fmt.Errorf("link %s is not EDF-feasible (%d tasks, demand exceeds supply at t=%d)", l, len(ts), at)
		}
	}
	return len(links), nil
}

// onTrunk lists the live channels whose route crosses trunk a-b in
// either direction.
func (c *checker) onTrunk(a, b uint16) map[uint32]bool {
	ab, ba := swName(a)+"→"+swName(b), swName(b)+"→"+swName(a)
	out := map[uint32]bool{}
	for id, t := range c.live {
		for _, l := range t.route {
			if l == ab || l == ba {
				out[id] = true
				break
			}
		}
	}
	return out
}

// setTrunk records a trunk's health. Failing it re-derives the route of
// every affected channel over the surviving trunks; a repair moves
// nothing back.
func (c *checker) setTrunk(a, b uint16, up bool, affected map[uint32]bool) error {
	if up {
		delete(c.down, trunkKey(a, b))
		return nil
	}
	c.down[trunkKey(a, b)] = true
	for id := range affected {
		t := c.live[id]
		r, err := c.route(t.spec.Src, t.spec.Dst)
		if err != nil {
			return fmt.Errorf("channel %d after trunk %d-%d failed: %w", id, a, b, err)
		}
		t.route = r
	}
	return nil
}
