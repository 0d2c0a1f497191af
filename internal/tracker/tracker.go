// Package tracker implements the CloudMedia tracking server (Fig. 3 and
// Sec. V-B): per-channel peer lists with chunk-availability bitmaps,
// chunk-rareness ranking for rarest-first scheduling, and the cloud
// redirection handshake — when peer supply is insufficient the tracker
// returns a 3-tuple ⟨entry-point address, port list, ticket⟩; the cloud
// entry point forwards the chunk request to a VM, which verifies the
// ticket before streaming.
//
// Tickets are HMAC-SHA256 tokens over (channel, chunk, peer, expiry),
// issued by the tracker and verified by package transport's VM servers;
// both sides share the secret out of band, standing in for the paper's SLA
// credential exchange.
package tracker

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// PeerID identifies a peer in the overlay.
type PeerID uint64

// EntryPoint is one public access address of the cloud infrastructure.
type EntryPoint struct {
	Addr  string // host:port of the entry point
	Ports []int  // forwarding ports available behind it
}

// CloudGrant is the tracker's redirection 3-tuple of Sec. V-B.
type CloudGrant struct {
	Entry  EntryPoint
	Ticket string // HMAC ticket the VM server verifies
}

// Errors returned by ticket verification and lookups.
var (
	ErrBadTicket      = errors.New("tracker: invalid ticket")
	ErrExpiredTicket  = errors.New("tracker: expired ticket")
	ErrUnknownChannel = errors.New("tracker: unknown channel")
	ErrUnknownPeer    = errors.New("tracker: unknown peer")
	ErrNoEntryPoints  = errors.New("tracker: no cloud entry points configured")
)

// peerState is one peer's registration in a channel.
type peerState struct {
	bitmap []bool
	owned  int
}

// channelIndex is the tracker's view of one channel.
type channelIndex struct {
	peers  map[PeerID]*peerState
	owners []int // per-chunk replica counts
}

// Tracker maintains the overlay metadata for all channels. All methods are
// safe for concurrent use.
type Tracker struct {
	mu sync.Mutex

	chunks   int
	channels map[int]*channelIndex
	entries  []EntryPoint
	secret   []byte
	ticketed uint64 // count of cloud grants issued (statistics)
}

// New creates a tracker for channels of `chunks` chunks each, with the
// given cloud entry points and HMAC secret.
func New(chunks int, entries []EntryPoint, secret []byte) (*Tracker, error) {
	if chunks <= 0 {
		return nil, fmt.Errorf("tracker: non-positive chunk count %d", chunks)
	}
	if len(secret) == 0 {
		return nil, fmt.Errorf("tracker: empty ticket secret")
	}
	for i, e := range entries {
		if e.Addr == "" {
			return nil, fmt.Errorf("tracker: entry point %d has empty address", i)
		}
	}
	return &Tracker{
		chunks:   chunks,
		channels: make(map[int]*channelIndex),
		entries:  entries,
		secret:   append([]byte(nil), secret...),
	}, nil
}

// Join registers a peer in a channel with an empty bitmap. Re-joining
// resets the peer's bitmap.
func (t *Tracker) Join(channel int, peer PeerID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := t.channel(channel)
	if old, ok := ch.peers[peer]; ok {
		for i, has := range old.bitmap {
			if has {
				ch.owners[i]--
			}
		}
	}
	ch.peers[peer] = &peerState{bitmap: make([]bool, t.chunks)}
}

// Leave removes a peer and its chunk replicas from the channel.
func (t *Tracker) Leave(channel int, peer PeerID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch, ok := t.channels[channel]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownChannel, channel)
	}
	st, ok := ch.peers[peer]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, peer)
	}
	for i, has := range st.bitmap {
		if has {
			ch.owners[i]--
		}
	}
	delete(ch.peers, peer)
	return nil
}

// Announce records that a peer now buffers a chunk (the periodic bitmap
// exchange of mesh-pull P2P).
func (t *Tracker) Announce(channel int, peer PeerID, chunk int) error {
	if chunk < 0 || chunk >= t.chunks {
		return fmt.Errorf("tracker: chunk %d outside [0,%d)", chunk, t.chunks)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ch, ok := t.channels[channel]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownChannel, channel)
	}
	st, ok := ch.peers[peer]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, peer)
	}
	if !st.bitmap[chunk] {
		st.bitmap[chunk] = true
		st.owned++
		ch.owners[chunk]++
	}
	return nil
}

// Peers returns the number of peers registered in the channel.
func (t *Tracker) Peers(channel int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ch, ok := t.channels[channel]; ok {
		return len(ch.peers)
	}
	return 0
}

// Owners returns a copy of the per-chunk replica counts — the rareness
// information rarest-first scheduling consumes.
func (t *Tracker) Owners(channel int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, t.chunks)
	if ch, ok := t.channels[channel]; ok {
		copy(out, ch.owners)
	}
	return out
}

// RarestOrder returns the chunk indices sorted by rising replica count.
func (t *Tracker) RarestOrder(channel int) []int {
	owners := t.Owners(channel)
	order := make([]int, len(owners))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return owners[order[a]] < owners[order[b]]
	})
	return order
}

// Suppliers returns up to max peers that buffer the chunk, deterministic
// order (by peer ID) so lookups are reproducible.
func (t *Tracker) Suppliers(channel, chunk int, max int) ([]PeerID, error) {
	if chunk < 0 || chunk >= t.chunks {
		return nil, fmt.Errorf("tracker: chunk %d outside [0,%d)", chunk, t.chunks)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ch, ok := t.channels[channel]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownChannel, channel)
	}
	var ids []PeerID
	for id, st := range ch.peers {
		if st.bitmap[chunk] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	if max > 0 && len(ids) > max {
		ids = ids[:max]
	}
	return ids, nil
}

// Lookup implements the Sec. V-B handshake: it returns peers holding the
// chunk if at least minPeers are available, and otherwise a CloudGrant
// redirecting the requester to a cloud entry point with a signed ticket
// valid until `expiry` (caller-defined clock, e.g. simulated seconds or a
// Unix timestamp).
func (t *Tracker) Lookup(channel, chunk int, requester PeerID, minPeers, maxPeers int, expiry uint64) ([]PeerID, *CloudGrant, error) {
	peers, err := t.Suppliers(channel, chunk, maxPeers+1)
	if err != nil {
		return nil, nil, err
	}
	// The requester cannot supply itself.
	filtered := peers[:0]
	for _, p := range peers {
		if p != requester {
			filtered = append(filtered, p)
		}
	}
	if maxPeers > 0 && len(filtered) > maxPeers {
		filtered = filtered[:maxPeers]
	}
	if len(filtered) >= minPeers {
		return filtered, nil, nil
	}
	grant, err := t.grant(channel, chunk, requester, expiry)
	if err != nil {
		return nil, nil, err
	}
	return filtered, grant, nil
}

// grant issues a CloudGrant for the requester.
func (t *Tracker) grant(channel, chunk int, requester PeerID, expiry uint64) (*CloudGrant, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) == 0 {
		return nil, ErrNoEntryPoints
	}
	entry := t.entries[int(t.ticketed)%len(t.entries)] // round-robin
	t.ticketed++
	return &CloudGrant{
		Entry:  entry,
		Ticket: signTicket(t.secret, channel, chunk, requester, expiry),
	}, nil
}

// GrantsIssued returns the number of cloud redirections so far — the
// "insufficient peer supply" statistic.
func (t *Tracker) GrantsIssued() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ticketed
}

// VerifyTicket checks a ticket for (channel, chunk, requester) against the
// shared secret and the caller's current clock. A VM server calls this
// before streaming the chunk an entry point forwarded to it.
func (t *Tracker) VerifyTicket(ticket string, channel, chunk int, requester PeerID, now uint64) error {
	return VerifyTicket(t.secret, ticket, channel, chunk, requester, now)
}

// signTicket builds "base64(expiry).base64(hmac)" over the request tuple.
func signTicket(secret []byte, channel, chunk int, requester PeerID, expiry uint64) string {
	mac := hmac.New(sha256.New, secret)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(channel))
	mac.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(chunk))
	mac.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(requester))
	mac.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], expiry)
	mac.Write(buf[:])
	return base64.RawURLEncoding.EncodeToString(buf[:]) + "." +
		base64.RawURLEncoding.EncodeToString(mac.Sum(nil))
}

// VerifyTicket validates a ticket produced by signTicket with the same
// secret, for the same tuple, and not yet expired at `now`.
func VerifyTicket(secret []byte, ticket string, channel, chunk int, requester PeerID, now uint64) error {
	var expiryPart, macPart string
	for i := 0; i < len(ticket); i++ {
		if ticket[i] == '.' {
			expiryPart, macPart = ticket[:i], ticket[i+1:]
			break
		}
	}
	if expiryPart == "" || macPart == "" {
		return ErrBadTicket
	}
	rawExpiry, err := base64.RawURLEncoding.DecodeString(expiryPart)
	if err != nil || len(rawExpiry) != 8 {
		return ErrBadTicket
	}
	expiry := binary.BigEndian.Uint64(rawExpiry)
	want := signTicket(secret, channel, chunk, requester, expiry)
	if !hmac.Equal([]byte(want), []byte(ticket)) {
		return ErrBadTicket
	}
	if now > expiry {
		return ErrExpiredTicket
	}
	return nil
}

// channel returns (creating if needed) the index for a channel.
// Caller holds t.mu.
func (t *Tracker) channel(id int) *channelIndex {
	ch, ok := t.channels[id]
	if !ok {
		ch = &channelIndex{
			peers:  make(map[PeerID]*peerState),
			owners: make([]int, t.chunks),
		}
		t.channels[id] = ch
	}
	return ch
}
