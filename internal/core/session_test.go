package core

import (
	"strings"
	"testing"

	"coarse/internal/sim"
	"coarse/internal/tensor"
	"coarse/internal/topology"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(topology.AWSV100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// push pushes g from c, failing the test on a rejected push.
func push(t *testing.T, c *Client, g *tensor.Tensor) {
	t.Helper()
	if err := c.Push(g); err != nil {
		t.Fatal(err)
	}
}

// filled returns an n-element tensor holding v everywhere.
func filled(name string, n int, v float32) *tensor.Tensor {
	g := tensor.New(name, n)
	for i := range g.Data {
		g.Data[i] = v
	}
	return g
}

func TestSessionPushPullAverages(t *testing.T) {
	s := newSession(t)
	clients := s.Clients()
	if len(clients) != 4 {
		t.Fatalf("clients = %d", len(clients))
	}
	for i, c := range clients {
		// Contributions 1,2,3,4 -> mean 2.5.
		push(t, c, filled("grad", 1000, float32(i+1)))
	}
	got := make([]*tensor.Tensor, len(clients))
	for i, c := range clients {
		i := i
		c.Pull("grad", func(t *tensor.Tensor) { got[i] = t })
	}
	s.Drain()
	for i, g := range got {
		if g == nil {
			t.Fatalf("client %d pull never completed", i)
		}
		for _, v := range g.Data {
			if v != 2.5 {
				t.Fatalf("client %d pulled %v, want 2.5", i, v)
			}
		}
	}
}

func TestSessionPullBeforePush(t *testing.T) {
	s := newSession(t)
	clients := s.Clients()
	var got *tensor.Tensor
	clients[0].Pull("w", func(t *tensor.Tensor) { got = t })
	for _, c := range clients {
		push(t, c, filled("w", 8, 4))
	}
	s.Drain()
	if got == nil || got.Data[0] != 4 {
		t.Fatalf("early pull got %v", got)
	}
}

func TestSessionPullReturnsPrivateCopy(t *testing.T) {
	s := newSession(t)
	clients := s.Clients()
	var a, b *tensor.Tensor
	for _, c := range clients {
		push(t, c, filled("w", 4, 1))
	}
	clients[0].Pull("w", func(t *tensor.Tensor) { a = t })
	clients[1].Pull("w", func(t *tensor.Tensor) { b = t })
	s.Drain()
	a.Data[0] = 99
	if b.Data[0] == 99 {
		t.Fatal("pulled tensors share storage")
	}
}

func TestSessionTimingIsVirtual(t *testing.T) {
	s := newSession(t)
	for _, c := range s.Clients() {
		g := tensor.New("w", 1<<20)
		push(t, c, g)
	}
	end := s.Drain()
	if end <= 0 {
		t.Fatal("push/pull consumed no virtual time")
	}
	if end > sim.Seconds(1) {
		t.Fatalf("4 MiB sync took %v of virtual time — implausible", end)
	}
}

func TestSessionReset(t *testing.T) {
	s := newSession(t)
	for round := 1; round <= 2; round++ {
		for _, c := range s.Clients() {
			push(t, c, filled("w", 8, float32(round)))
		}
		var got *tensor.Tensor
		s.Clients()[0].Pull("w", func(t *tensor.Tensor) { got = t })
		s.Drain()
		if got.Data[0] != float32(round) {
			t.Fatalf("round %d pulled %v", round, got.Data[0])
		}
		s.Reset()
	}
}

// TestSessionMismatchedPushRejected: a push whose length differs from
// the first push of its name fails at call time, naming the tensor and
// both lengths, sends nothing, and leaves the round drainable.
func TestSessionMismatchedPushRejected(t *testing.T) {
	s := newSession(t)
	clients := s.Clients()
	push(t, clients[0], tensor.New("w", 8))
	err := clients[1].Push(tensor.New("w", 9))
	if err == nil {
		t.Fatal("push of 9 elems accepted after one of 8")
	}
	for _, want := range []string{`"w"`, "9", "8"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
	s.Drain()
	// The rejected push sent nothing: the other clients still complete
	// the round, and the mean covers their contributions only.
	for _, c := range clients[1:] {
		push(t, c, filled("w", 8, 4))
	}
	var got *tensor.Tensor
	clients[0].Pull("w", func(t *tensor.Tensor) { got = t })
	s.Drain()
	if got == nil || got.Data[0] != 3 {
		t.Fatalf("pulled %v, want the mean of 0,4,4,4 = 3", got)
	}
	// After Reset the name takes a new length.
	s.Reset()
	push(t, clients[0], tensor.New("w", 9))
}

func TestSessionNoMemDevsRejected(t *testing.T) {
	spec := topology.SDSCP100()
	spec.Slots = []string{"WW"}
	if _, err := NewSession(spec, DefaultOptions()); err == nil {
		t.Fatal("machine without memory devices accepted")
	}
}
