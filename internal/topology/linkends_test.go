package topology

import (
	"fmt"
	"strings"
	"testing"

	"coarse/internal/fabric"
	"coarse/internal/sim"
)

// linkEndsFromNames recovers each link's two end devices from its name,
// "<a><-><b>" as Connect builds it, in creation order.
func linkEndsFromNames(t *testing.T, m *Machine) [][2]*Device {
	t.Helper()
	byName := make(map[string]*Device, len(m.Devices()))
	for _, d := range m.Devices() {
		if byName[d.Name] != nil {
			t.Fatalf("two devices named %s", d.Name)
		}
		byName[d.Name] = d
	}
	var ends [][2]*Device
	for _, l := range m.Net.Links() {
		a, b, ok := strings.Cut(l.Name(), "<->")
		if !ok || byName[a] == nil || byName[b] == nil {
			t.Fatalf("link %s does not name its two devices", l.Name())
		}
		ends = append(ends, [2]*Device{byName[a], byName[b]})
	}
	return ends
}

func linkNames(links []*fabric.Link) string {
	var out []string
	for _, l := range links {
		out = append(out, l.Name())
	}
	return strings.Join(out, " ")
}

// TestLinkEndsQueries pins LinksBetween for every pair of kinds and
// LinksByTier against the ends each link's name records, in creation
// order, and pins the tier sizes, on a preset and on a generated
// two-rack machine.
func TestLinkEndsQueries(t *testing.T) {
	for _, tc := range []struct {
		spec  Spec
		tiers string
	}{
		{AWSV100(), "edge:4 peer:8 up:8 host:5 cci:9"},
		{ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 2, MemDevTier: TierRack, Oversub: 2}.Generate(),
			"edge:8 peer:8 up:8 host:12 cci:2 nic:4 rack:6 spine:2"},
	} {
		m := Build(sim.NewEngine(), tc.spec)
		ends := linkEndsFromNames(t, m)
		links := m.Net.Links()
		for a := KindCPU; a <= KindNetSwitch; a++ {
			for b := KindCPU; b <= KindNetSwitch; b++ {
				var want []*fabric.Link
				for i, e := range ends {
					if (e[0].Kind == a && e[1].Kind == b) || (e[0].Kind == b && e[1].Kind == a) {
						want = append(want, links[i])
					}
				}
				if got := m.LinksBetween(a, b); linkNames(got) != linkNames(want) {
					t.Errorf("%s: LinksBetween(%s, %s) = [%s], want [%s]", tc.spec.Label, a, b, linkNames(got), linkNames(want))
				}
			}
		}
		var tiers []string
		for _, tl := range m.LinksByTier() {
			var want []*fabric.Link
			for i, e := range ends {
				if linkTier(e[0].Kind, e[1].Kind) == tl.Name {
					want = append(want, links[i])
				}
			}
			if linkNames(tl.Links) != linkNames(want) {
				t.Errorf("%s: tier %s = [%s], want [%s]", tc.spec.Label, tl.Name, linkNames(tl.Links), linkNames(want))
			}
			tiers = append(tiers, fmt.Sprintf("%s:%d", tl.Name, len(tl.Links)))
		}
		if got := strings.Join(tiers, " "); got != tc.tiers {
			t.Errorf("%s: tiers %q, want %q", tc.spec.Label, got, tc.tiers)
		}
	}
}
