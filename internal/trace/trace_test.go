package trace

import "testing"

// TestEventString: the textual form carries the time, the kind, and only
// the fields the event sets.
func TestEventString(t *testing.T) {
	for _, c := range []struct {
		e    Event
		want string
	}{
		{Event{Time: 1.5, Kind: KindRound, VM: "vm0", Round: 2, Value: 3e6},
			"    1.5000 " + pad(KindRound.String()) + " vm=vm0 round=2 value=3e+06"},
		{Event{Time: 2, Kind: KindMigrationRequested, Detail: "to node1"},
			"    2.0000 " + pad(KindMigrationRequested.String()) + " to node1"},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("event renders as %q, want %q", got, c.want)
		}
	}
}

// pad left-aligns a kind name in the 20-column field String uses.
func pad(s string) string {
	for len(s) < 20 {
		s += " "
	}
	return s
}
