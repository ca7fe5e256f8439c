package main

import (
	"fmt"
	"testing"
)

func repeat(t task, n int) []task {
	out := make([]task, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// TestEDFHandWorked pins the demand test on task sets worked by hand.
func TestEDFHandWorked(t *testing.T) {
	cases := []struct {
		name string
		ts   []task
		ok   bool
		at   int64
	}{
		// Six SDPS uplink tasks (3,100,20): h(20) = 18 <= 20; the next
		// deadlines are 120, 220, ... with h = 36, 54, ...
		{"six 3/100/20 fit", repeat(task{3, 100, 20}, 6), true, 0},
		// A seventh: h(20) = 21 > 20.
		{"seven 3/100/20 fail at 20", repeat(task{3, 100, 20}, 7), false, 20},
		// U = 1 with implicit deadlines is feasible.
		{"U=1 implicit", []task{{2, 4, 4}, {2, 4, 4}}, true, 0},
		// U = 1 with a constrained deadline: h(2)=2, h(4)=4, h(6)=6, ...
		{"U=1 constrained", []task{{2, 4, 2}, {2, 4, 4}}, true, 0},
		// h(1) = 1, h(2) = 3 > 2.
		{"demand at 2", []task{{2, 4, 2}, {1, 4, 1}}, false, 2},
		// U = 5/4.
		{"utilization", []task{{3, 4, 4}, {2, 4, 4}}, false, 0},
		// U = 1/4 + 1/3: h(2)=1, h(4)=3, h(6)=4, h(10)=7, h(12)=8, ...
		{"mixed periods", []task{{1, 4, 2}, {2, 6, 4}}, true, 0},
		// (1,3,1) and (2,5,2): h(1)=1, h(2)=3 > 2.
		{"tight pair", []task{{1, 3, 1}, {2, 5, 2}}, false, 2},
		// Deadline past the period: (2,3,5): U = 2/3, h(5)=2, h(8)=4.
		{"deadline past period", []task{{2, 3, 5}}, true, 0},
	}
	for _, c := range cases {
		ok, at, err := edfFeasible(c.ts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || at != c.at {
			t.Errorf("%s: feasible=%v at=%d, want %v at %d", c.name, ok, at, c.ok, c.at)
		}
	}
}

// TestSevenChannelSDPSUplink replays the paper's master/slave case with
// the checker: seven channels (C=3, P=100, D=40) from node 1, SDPS
// splitting each deadline 20/20. Six fit; the seventh overloads
// link(1,up), and only that link.
func TestSevenChannelSDPSUplink(t *testing.T) {
	top := &Topology{}
	for n := uint16(1); n <= 8; n++ {
		top.Nodes = append(top.Nodes, n)
	}
	c := newChecker(top)
	for i := 0; i < 7; i++ {
		s := Spec{Src: 1, Dst: uint16(2 + i), C: 3, P: 100, D: 40}
		if err := c.admit(uint32(i+1), s, []int64{20, 20}); err != nil {
			t.Fatal(err)
		}
		links := map[string][]task{}
		for _, tr := range c.live {
			for _, l := range tr.route {
				links[l] = append(links[l], task{tr.spec.C, tr.spec.P, 20})
			}
		}
		var bad []string
		for l, ts := range links {
			if ok, _, _ := edfFeasible(ts); !ok {
				bad = append(bad, l)
			}
		}
		want := 0
		if i == 6 {
			want = 1
		}
		if len(bad) != want {
			t.Fatalf("after channel %d: infeasible links %v", i+1, bad)
		}
		if want == 1 && bad[0] != "link(1,up)" {
			t.Fatalf("seventh channel overloads %s, want link(1,up)", bad[0])
		}
	}
}

func ring() *Topology {
	t := &Topology{Home: map[uint16]uint16{}}
	for s := uint16(0); s < 4; s++ {
		t.Switches = append(t.Switches, s)
		t.Trunks = append(t.Trunks, [2]uint16{s, (s + 1) % 4})
		n := s*10 + 1
		t.Nodes = append(t.Nodes, n)
		t.Home[n] = s
	}
	return t
}

// TestRingRoutes checks route derivation against trunk health.
func TestRingRoutes(t *testing.T) {
	c := newChecker(ring())
	r, err := c.route(1, 11)
	if err != nil || fmt.Sprint(r) != "[n1→sw0 sw0→sw1 sw1→n11]" {
		t.Fatalf("adjacent route %v, %v", r, err)
	}
	if _, err := c.route(1, 21); err == nil {
		t.Fatal("two shortest routes to the opposite switch, want an error")
	}
	if err := c.admit(7, Spec{Src: 1, Dst: 11, C: 1, P: 100, D: 50}, []int64{10, 30, 10}); err != nil {
		t.Fatal(err)
	}
	aff := c.onTrunk(1, 0)
	if len(aff) != 1 || !aff[7] {
		t.Fatalf("affected by trunk 0-1: %v", aff)
	}
	if err := c.setTrunk(0, 1, false, aff); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(c.live[7].route); got != "[n1→sw0 sw0→sw3 sw3→sw2 sw2→sw1 sw1→n11]" {
		t.Fatalf("detour %s", got)
	}
	if err := checkBudgets(c.live[7].spec, c.live[7].route, []int64{10, 10, 10, 10, 10}); err != nil {
		t.Fatal(err)
	}
	if err := c.setTrunk(0, 1, true, nil); err != nil {
		t.Fatal(err)
	}
	if len(c.live[7].route) != 5 {
		t.Fatal("a repair must not move the channel back")
	}
}

// TestBudgetChecks covers each budget rule.
func TestBudgetChecks(t *testing.T) {
	s := Spec{Src: 1, Dst: 2, C: 3, P: 100, D: 40}
	r := []string{"link(1,up)", "link(2,down)"}
	for _, c := range []struct {
		b  []int64
		ok bool
	}{
		{[]int64{20, 20}, true},
		{[]int64{37, 3}, true},
		{[]int64{38, 2}, false},      // below C
		{[]int64{20, 19}, false},     // sums to 39
		{[]int64{10, 10, 20}, false}, // hop count
	} {
		if err := checkBudgets(s, r, c.b); (err == nil) != c.ok {
			t.Errorf("budgets %v: err=%v, want ok=%v", c.b, err, c.ok)
		}
	}
}

// TestRejectionOnRoute checks the rejection rule.
func TestRejectionOnRoute(t *testing.T) {
	top := &Topology{Nodes: []uint16{1, 2, 3, 4}}
	c := newChecker(top)
	s := Spec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}
	if _, err := c.checkRejection(s, "link(2,down)", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.checkRejection(s, "link(3,down)", 1); err == nil {
		t.Fatal("a link off the route passed")
	}
	if err := c.admit(9, Spec{Src: 1, Dst: 3, C: 1, P: 100, D: 40}, []int64{20, 20}); err != nil {
		t.Fatal(err)
	}
	if off, err := c.checkRejection(s, "link(3,down)", -1); err != nil || !off {
		t.Fatalf("off-route rejection: %v %v", off, err)
	}
	if _, err := c.checkRejection(s, "link(4,down)", -1); err == nil {
		t.Fatal("an unloaded link passed")
	}
	if _, err := c.checkRejection(s, "link(2,down)", -1); err == nil {
		t.Fatal("an on-route link without its hop passed")
	}
}
