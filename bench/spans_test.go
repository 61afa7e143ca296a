package main

import "testing"

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		// nested: 2 inside 1, 3 inside 2
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 2, StartNS: 20, EndNS: 30},
		// overlapping siblings under 1: [40,70] overlaps 2's [10,50]
		{ID: 4, Parent: 1, StartNS: 40, EndNS: 70},
		// a child that overruns its parent is clipped to it
		{ID: 5, Parent: 1, StartNS: 90, EndNS: 130},
		// a child wholly inside a sibling adds nothing
		{ID: 6, Parent: 1, StartNS: 45, EndNS: 60},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (70 - 10) - (100 - 90), // children cover [10,70] and [90,100]
		2: 40 - 10,
		3: 10,
		4: 30,
		5: 40,
		6: 15,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerParentsAndNil(t *testing.T) {
	var off *tracer
	off.begin("core", "x").endCount(3) // a nil tracer records nothing and must not panic
	if off.all() != nil {
		t.Error("nil tracer returned spans")
	}
	tr := newTracer("w")
	a := tr.begin("core", "outer")
	b := tr.begin("fault", "inner")
	b.endCount(7)
	c := tr.begin("core", "second")
	c.end()
	a.end()
	d := tr.begin("svc", "root2")
	d.end()
	spans := tr.all()
	if len(spans) != 4 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[0].ID || spans[0].Parent != 0 || spans[3].Parent != 0 {
		t.Errorf("parents wrong: %+v", spans)
	}
	if spans[1].Count != 7 || spans[1].Workload != "w" || spans[1].Layer != "fault" {
		t.Errorf("span fields wrong: %+v", spans[1])
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
}
