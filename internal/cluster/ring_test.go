package cluster

import (
	"fmt"
	"testing"
)

func testPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return peers
}

// TestRingDeterministic checks every peer derives the same ring from the
// same membership regardless of list order.
func TestRingDeterministic(t *testing.T) {
	peers := testPeers(5)
	shuffled := []string{peers[3], peers[0], peers[4], peers[2], peers[1]}
	a, b := NewRing(peers), NewRing(shuffled)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner differs across peer list orders", key)
		}
	}
}

// TestRingSpread checks virtual nodes keep ownership roughly uniform.
func TestRingSpread(t *testing.T) {
	r := NewRing(testPeers(4))
	counts := make(map[string]int)
	const n = 10000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for p, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("peer %s owns %.1f%% of keys, want roughly 25%%", p, 100*frac)
		}
	}
}

// TestRingSuccessorsDistinct checks the steal/replica order lists each
// peer at most once, owner first.
func TestRingSuccessorsDistinct(t *testing.T) {
	r := NewRing(testPeers(4))
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		succ := r.Successors(key, 4)
		if len(succ) != 4 {
			t.Fatalf("key %q: %d successors, want 4", key, len(succ))
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("key %q: successor list does not start with the owner", key)
		}
		seen := make(map[string]bool)
		for _, p := range succ {
			if seen[p] {
				t.Fatalf("key %q: duplicate successor %s", key, p)
			}
			seen[p] = true
		}
	}
}

// TestRingStabilityOnDeath checks the consistent-hash property the whole
// design leans on: when one peer dies, only its keys move — every key a
// survivor owned stays put.
func TestRingStabilityOnDeath(t *testing.T) {
	peers := testPeers(4)
	r := NewRing(peers)
	dead := peers[2]
	alive := func(p string) bool { return p != dead }
	moved := 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r.Owner(key)
		after := r.OwnerAmong(key, alive)
		if before != dead {
			if after != before {
				t.Fatalf("key %q moved from surviving owner %s to %s", key, before, after)
			}
			continue
		}
		if after == dead || after == "" {
			t.Fatalf("key %q still assigned to the dead peer", key)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("dead peer owned no keys; test proves nothing")
	}
}

// TestRingOwnerAmongNobody returns empty when every member is down.
func TestRingOwnerAmongNobody(t *testing.T) {
	r := NewRing(testPeers(3))
	if got := r.OwnerAmong("k", func(string) bool { return false }); got != "" {
		t.Fatalf("owner among no alive peers = %q, want empty", got)
	}
}

// TestRingPlacementPinned pins where fixed keys land on a fixed ring, so
// a change to the ring hash cannot silently move jobs between peers.
func TestRingPlacementPinned(t *testing.T) {
	r := NewRing(testPeers(4))
	var got []byte
	for i := 1; i <= 24; i++ {
		owner := r.Owner(fmt.Sprintf("job-%06d", i))
		got = append(got, owner[len(owner)-1])
	}
	if want := "110113122211211313323222"; string(got) != want {
		t.Errorf("owner ports end in %s, want %s", got, want)
	}
	if got, want := fmt.Sprintf("%016x", hashKey("job-000001")), "2ff8c637f0daa924"; got != want {
		t.Errorf("hashKey(job-000001) = %s, want %s", got, want)
	}
}
