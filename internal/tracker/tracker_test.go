package tracker

import (
	"errors"
	"testing"
)

func newTestTracker(t *testing.T) *Tracker {
	t.Helper()
	tr, err := New(5, []EntryPoint{
		{Addr: "10.0.0.1:9000", Ports: []int{9001, 9002}},
		{Addr: "10.0.0.2:9000", Ports: []int{9001}},
	}, []byte("test-secret"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil, []byte("s")); err == nil {
		t.Error("zero chunks accepted")
	}
	if _, err := New(3, nil, nil); err == nil {
		t.Error("empty secret accepted")
	}
	if _, err := New(3, []EntryPoint{{}}, []byte("s")); err == nil {
		t.Error("empty entry address accepted")
	}
}

func TestJoinAnnounceLeave(t *testing.T) {
	tr := newTestTracker(t)
	tr.Join(0, 1)
	tr.Join(0, 2)
	if got := tr.Peers(0); got != 2 {
		t.Fatalf("Peers = %d, want 2", got)
	}
	if err := tr.Announce(0, 1, 3); err != nil {
		t.Fatalf("Announce: %v", err)
	}
	if err := tr.Announce(0, 1, 3); err != nil {
		t.Fatalf("repeat Announce: %v", err)
	}
	owners := tr.Owners(0)
	if owners[3] != 1 {
		t.Errorf("owners[3] = %d, want 1 (announce is idempotent)", owners[3])
	}
	if err := tr.Leave(0, 1); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if got := tr.Owners(0)[3]; got != 0 {
		t.Errorf("owners[3] after leave = %d, want 0", got)
	}
	if got := tr.Peers(0); got != 1 {
		t.Errorf("Peers = %d, want 1", got)
	}
}

func TestRejoinResetsBitmap(t *testing.T) {
	tr := newTestTracker(t)
	tr.Join(0, 7)
	if err := tr.Announce(0, 7, 2); err != nil {
		t.Fatal(err)
	}
	tr.Join(0, 7) // rejoin
	if got := tr.Owners(0)[2]; got != 0 {
		t.Errorf("owners[2] after rejoin = %d, want 0", got)
	}
}

func TestAnnounceErrors(t *testing.T) {
	tr := newTestTracker(t)
	if err := tr.Announce(0, 1, 0); !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("unknown channel: %v", err)
	}
	tr.Join(0, 1)
	if err := tr.Announce(0, 99, 0); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("unknown peer: %v", err)
	}
	if err := tr.Announce(0, 1, 9); err == nil {
		t.Error("chunk out of range accepted")
	}
	if err := tr.Leave(3, 1); !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("leave unknown channel: %v", err)
	}
	if err := tr.Leave(0, 42); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("leave unknown peer: %v", err)
	}
}

func TestRarestOrder(t *testing.T) {
	tr := newTestTracker(t)
	for p := PeerID(1); p <= 4; p++ {
		tr.Join(0, p)
	}
	// chunk 0: 3 owners; chunk 1: 1; chunk 2: 2; chunks 3,4: 0.
	for _, p := range []PeerID{1, 2, 3} {
		if err := tr.Announce(0, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Announce(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PeerID{2, 3} {
		if err := tr.Announce(0, p, 2); err != nil {
			t.Fatal(err)
		}
	}
	order := tr.RarestOrder(0)
	// Rarest first: chunks 3,4 (0 owners), then 1, then 2, then 0.
	if order[2] != 1 || order[3] != 2 || order[4] != 0 {
		t.Errorf("RarestOrder = %v", order)
	}
}

func TestSuppliersDeterministicAndBounded(t *testing.T) {
	tr := newTestTracker(t)
	for p := PeerID(1); p <= 5; p++ {
		tr.Join(0, p)
		if err := tr.Announce(0, p, 2); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Suppliers(0, 2, 3)
	if err != nil {
		t.Fatalf("Suppliers: %v", err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Suppliers = %v, want [1 2 3]", got)
	}
	if _, err := tr.Suppliers(0, 9, 3); err == nil {
		t.Error("chunk out of range accepted")
	}
	if _, err := tr.Suppliers(9, 0, 3); !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("unknown channel: %v", err)
	}
}

func TestLookupReturnsPeersWhenSufficient(t *testing.T) {
	tr := newTestTracker(t)
	for p := PeerID(1); p <= 3; p++ {
		tr.Join(0, p)
		if err := tr.Announce(0, p, 1); err != nil {
			t.Fatal(err)
		}
	}
	peers, grant, err := tr.Lookup(0, 1, 9, 2, 5, 1000)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if grant != nil {
		t.Error("grant issued despite sufficient peers")
	}
	if len(peers) != 3 {
		t.Errorf("peers = %v", peers)
	}
}

func TestLookupExcludesRequester(t *testing.T) {
	tr := newTestTracker(t)
	tr.Join(0, 1)
	if err := tr.Announce(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	peers, grant, err := tr.Lookup(0, 1, 1, 1, 5, 1000)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(peers) != 0 {
		t.Errorf("requester offered itself: %v", peers)
	}
	if grant == nil {
		t.Fatal("expected a cloud grant")
	}
}

func TestLookupGrantsCloudOnShortage(t *testing.T) {
	tr := newTestTracker(t)
	tr.Join(0, 1)
	peers, grant, err := tr.Lookup(0, 3, 1, 1, 5, 500)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(peers) != 0 || grant == nil {
		t.Fatalf("want cloud grant, got peers=%v grant=%v", peers, grant)
	}
	if grant.Entry.Addr == "" || grant.Ticket == "" {
		t.Errorf("incomplete grant: %+v", grant)
	}
	// The ticket validates for the exact tuple and clock.
	if err := tr.VerifyTicket(grant.Ticket, 0, 3, 1, 400); err != nil {
		t.Errorf("VerifyTicket: %v", err)
	}
	if tr.GrantsIssued() != 1 {
		t.Errorf("GrantsIssued = %d", tr.GrantsIssued())
	}
}

func TestGrantsRoundRobinEntryPoints(t *testing.T) {
	tr := newTestTracker(t)
	tr.Join(0, 1)
	g1, err := tr.grant(0, 0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tr.grant(0, 0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Entry.Addr == g2.Entry.Addr {
		t.Errorf("entry points not rotated: %v, %v", g1.Entry.Addr, g2.Entry.Addr)
	}
}

func TestTicketRejection(t *testing.T) {
	secret := []byte("k")
	ticket := signTicket(secret, 1, 2, 3, 100)
	// The wire form is base64(expiry) "." base64(hmac), byte for byte.
	if want := "AAAAAAAAAGQ.YPjF0PKaeFGvrc_GhX4_R0KQzDlHzwlK7U9ORbweLA4"; ticket != want {
		t.Fatalf("ticket = %q, want %q", ticket, want)
	}

	if err := VerifyTicket(secret, ticket, 1, 2, 3, 50); err != nil {
		t.Fatalf("valid ticket rejected: %v", err)
	}
	if err := VerifyTicket(secret, ticket, 1, 2, 3, 101); !errors.Is(err, ErrExpiredTicket) {
		t.Errorf("expired: %v", err)
	}
	if err := VerifyTicket(secret, ticket, 1, 2, 4, 50); !errors.Is(err, ErrBadTicket) {
		t.Errorf("wrong peer: %v", err)
	}
	if err := VerifyTicket(secret, ticket, 0, 2, 3, 50); !errors.Is(err, ErrBadTicket) {
		t.Errorf("wrong channel: %v", err)
	}
	if err := VerifyTicket([]byte("other"), ticket, 1, 2, 3, 50); !errors.Is(err, ErrBadTicket) {
		t.Errorf("wrong secret: %v", err)
	}
	if err := VerifyTicket(secret, "garbage", 1, 2, 3, 50); !errors.Is(err, ErrBadTicket) {
		t.Errorf("malformed: %v", err)
	}
	// Tampered MAC: flip the final character to a different base64 symbol.
	last := ticket[len(ticket)-1]
	flip := byte('A')
	if last == 'A' {
		flip = 'B'
	}
	tampered := ticket[:len(ticket)-1] + string(flip)
	if err := VerifyTicket(secret, tampered, 1, 2, 3, 50); !errors.Is(err, ErrBadTicket) {
		t.Errorf("tampered: %v", err)
	}
}

func TestLookupNoEntryPoints(t *testing.T) {
	tr, err := New(3, nil, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	tr.Join(0, 1)
	if _, _, err := tr.Lookup(0, 0, 1, 1, 5, 10); !errors.Is(err, ErrNoEntryPoints) {
		t.Errorf("err = %v, want ErrNoEntryPoints", err)
	}
}

func TestOwnersUnknownChannelIsZero(t *testing.T) {
	tr := newTestTracker(t)
	owners := tr.Owners(42)
	for _, n := range owners {
		if n != 0 {
			t.Errorf("unknown channel owners = %v", owners)
		}
	}
}
