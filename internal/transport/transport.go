// Package transport implements the data plane of Sec. V-B over real TCP:
// VM chunk servers that verify tracker tickets and stream chunk bytes to
// peers, cloud entry points that port-forward requests to VMs, and the
// client fetch call. In the paper this role is played by modified Apache
// servers behind port-forwarding entry points; here it is a compact binary
// protocol on net.Conn so the control plane (tracker tickets, entry-point
// rotation) can be exercised end to end in tests and demos.
//
// Wire format, request (client → entry point → VM):
//
//	magic      uint32  "CMED"
//	channel    uint32
//	chunk      uint32
//	peer       uint64
//	expiry     uint64
//	ticketLen  uint16
//	ticket     [ticketLen]byte
//
// Response (VM → client):
//
//	status     uint8   (0 = OK, 1 = bad ticket, 2 = unknown chunk)
//	length     uint32  (payload bytes, present only when status = 0)
//	payload    [length]byte
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

const magic = 0x434d4544 // "CMED"

// Response status codes.
const (
	statusOK         = 0
	statusBadTicket  = 1
	statusUnknown    = 2
	maxTicketLen     = 512
	maxChunkPayload  = 64 << 20 // 64 MiB: far above any chunk in this system
	defaultIOTimeout = 10 * time.Second
)

// Errors surfaced to clients.
var (
	ErrBadTicket    = errors.New("transport: ticket rejected")
	ErrUnknownChunk = errors.New("transport: unknown chunk")
)

// ChunkStore provides chunk payloads to a VM server.
type ChunkStore interface {
	// ChunkData returns the payload of (channel, chunk) or an error if the
	// store does not hold it.
	ChunkData(channel, chunk int) ([]byte, error)
}

// TicketVerifier validates a tracker ticket for a request tuple.
type TicketVerifier func(ticket string, channel, chunk int, peer uint64, expiry uint64) error

// request is one parsed wire request.
type request struct {
	channel, chunk int
	peer           uint64
	expiry         uint64
	ticket         string
}

// readRequest parses a request from the connection.
func readRequest(r io.Reader) (request, error) {
	var head struct {
		Magic     uint32
		Channel   uint32
		Chunk     uint32
		Peer      uint64
		Expiry    uint64
		TicketLen uint16
	}
	if err := binary.Read(r, binary.BigEndian, &head); err != nil {
		return request{}, fmt.Errorf("transport: read header: %w", err)
	}
	if head.Magic != magic {
		return request{}, fmt.Errorf("transport: bad magic %#x", head.Magic)
	}
	if head.TicketLen > maxTicketLen {
		return request{}, fmt.Errorf("transport: ticket length %d too large", head.TicketLen)
	}
	ticket := make([]byte, head.TicketLen)
	if _, err := io.ReadFull(r, ticket); err != nil {
		return request{}, fmt.Errorf("transport: read ticket: %w", err)
	}
	return request{
		channel: int(head.Channel),
		chunk:   int(head.Chunk),
		peer:    head.Peer,
		expiry:  head.Expiry,
		ticket:  string(ticket),
	}, nil
}

// writeRequest serializes a request.
func writeRequest(w io.Writer, req request) error {
	head := struct {
		Magic     uint32
		Channel   uint32
		Chunk     uint32
		Peer      uint64
		Expiry    uint64
		TicketLen uint16
	}{magic, uint32(req.channel), uint32(req.chunk), req.peer, req.expiry, uint16(len(req.ticket))}
	if err := binary.Write(w, binary.BigEndian, head); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	if _, err := io.WriteString(w, req.ticket); err != nil {
		return fmt.Errorf("transport: write ticket: %w", err)
	}
	return nil
}

// VMServer is one VM's streaming service: it answers chunk requests whose
// tickets verify.
type VMServer struct {
	store  ChunkStore
	verify TicketVerifier

	ln   net.Listener
	wg   sync.WaitGroup
	once sync.Once
}

// NewVMServer starts a VM chunk server on addr (use "127.0.0.1:0" for an
// ephemeral test port).
func NewVMServer(addr string, store ChunkStore, verify TicketVerifier) (*VMServer, error) {
	if store == nil {
		return nil, fmt.Errorf("transport: nil chunk store")
	}
	if verify == nil {
		return nil, fmt.Errorf("transport: nil ticket verifier")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &VMServer{store: store, verify: verify, ln: ln}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the server's listen address.
func (s *VMServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for in-flight requests to finish.
func (s *VMServer) Close() error {
	var err error
	s.once.Do(func() {
		err = s.ln.Close()
		s.wg.Wait()
	})
	return err
}

func (s *VMServer) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

func (s *VMServer) handle(conn net.Conn) {
	//cloudmedia:allow noloss -- best-effort deadline; a dead conn fails the next read anyway
	_ = conn.SetDeadline(time.Now().Add(defaultIOTimeout))
	req, err := readRequest(conn)
	if err != nil {
		return
	}
	if err := s.verify(req.ticket, req.channel, req.chunk, req.peer, req.expiry); err != nil {
		//cloudmedia:allow noloss -- best-effort error reply; the peer is already being dropped
		_ = binary.Write(conn, binary.BigEndian, uint8(statusBadTicket))
		return
	}
	data, err := s.store.ChunkData(req.channel, req.chunk)
	if err != nil {
		//cloudmedia:allow noloss -- best-effort error reply; the peer is already being dropped
		_ = binary.Write(conn, binary.BigEndian, uint8(statusUnknown))
		return
	}
	if err := binary.Write(conn, binary.BigEndian, uint8(statusOK)); err != nil {
		return
	}
	if err := binary.Write(conn, binary.BigEndian, uint32(len(data))); err != nil {
		return
	}
	//cloudmedia:allow noloss -- final payload write; the client detects truncation against the length header
	_, _ = conn.Write(data)
}

// EntryPoint is a cloud access point that forwards client connections to
// VM servers round-robin — the port-forwarding technique of Sec. V-B. It
// performs no protocol inspection; tickets are verified by the VMs.
type EntryPoint struct {
	mu      sync.Mutex
	targets []string
	next    int

	ln   net.Listener
	wg   sync.WaitGroup
	once sync.Once
}

// NewEntryPoint starts an entry point on addr forwarding to the given VM
// addresses.
func NewEntryPoint(addr string, targets []string) (*EntryPoint, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("transport: entry point needs at least one VM target")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &EntryPoint{targets: append([]string(nil), targets...), ln: ln}
	e.wg.Add(1)
	go e.serve()
	return e, nil
}

// Addr returns the entry point's listen address.
func (e *EntryPoint) Addr() string { return e.ln.Addr().String() }

// SetTargets replaces the forwarding set (the VM scheduler updates it as
// VMs launch and retire).
func (e *EntryPoint) SetTargets(targets []string) error {
	if len(targets) == 0 {
		return fmt.Errorf("transport: entry point needs at least one VM target")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.targets = append([]string(nil), targets...)
	e.next = 0
	return nil
}

// Close stops the entry point and waits for in-flight forwards.
func (e *EntryPoint) Close() error {
	var err error
	e.once.Do(func() {
		err = e.ln.Close()
		e.wg.Wait()
	})
	return err
}

func (e *EntryPoint) serve() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer conn.Close()
			e.forward(conn)
		}()
	}
}

func (e *EntryPoint) forward(client net.Conn) {
	e.mu.Lock()
	target := e.targets[e.next%len(e.targets)]
	e.next++
	e.mu.Unlock()

	vm, err := net.DialTimeout("tcp", target, defaultIOTimeout)
	if err != nil {
		return
	}
	defer vm.Close()
	//cloudmedia:allow noloss -- best-effort deadline; a dead conn fails the copy below anyway
	_ = client.SetDeadline(time.Now().Add(defaultIOTimeout))
	//cloudmedia:allow noloss -- best-effort deadline; a dead conn fails the copy below anyway
	_ = vm.SetDeadline(time.Now().Add(defaultIOTimeout))

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = io.Copy(vm, client) // request path
	}()
	//cloudmedia:allow noloss -- forwarder teardown: either side closing ends the copy, nothing to report
	_, _ = io.Copy(client, vm) // response path
	<-done
}

// FetchChunk requests one chunk through addr (an entry point or a VM
// directly) with the given ticket, returning the payload.
func FetchChunk(addr string, channel, chunk int, peer uint64, expiry uint64, ticket string) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, defaultIOTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	defer conn.Close()
	//cloudmedia:allow noloss -- best-effort deadline; a dead conn fails the request write anyway
	_ = conn.SetDeadline(time.Now().Add(defaultIOTimeout))
	if err := writeRequest(conn, request{
		channel: channel, chunk: chunk, peer: peer, expiry: expiry, ticket: ticket,
	}); err != nil {
		return nil, err
	}
	// Half-close the write side so io.Copy-based forwarders see EOF on the
	// request path and the response can flow back.
	if tcp, ok := conn.(*net.TCPConn); ok {
		//cloudmedia:allow noloss -- best-effort half-close; failure just delays the forwarder's EOF
		_ = tcp.CloseWrite()
	}
	var status uint8
	if err := binary.Read(conn, binary.BigEndian, &status); err != nil {
		return nil, fmt.Errorf("transport: read status: %w", err)
	}
	switch status {
	case statusOK:
	case statusBadTicket:
		return nil, ErrBadTicket
	case statusUnknown:
		return nil, ErrUnknownChunk
	default:
		return nil, fmt.Errorf("transport: unknown status %d", status)
	}
	var length uint32
	if err := binary.Read(conn, binary.BigEndian, &length); err != nil {
		return nil, fmt.Errorf("transport: read length: %w", err)
	}
	if length > maxChunkPayload {
		return nil, fmt.Errorf("transport: payload %d exceeds limit", length)
	}
	data := make([]byte, length)
	if _, err := io.ReadFull(conn, data); err != nil {
		return nil, fmt.Errorf("transport: read payload: %w", err)
	}
	return data, nil
}

// SyntheticStore is a deterministic ChunkStore: chunk (c, i) is a repeated
// pattern derived from its identity, sized uniformly. It stands in for the
// NFS-backed video library in tests and demos.
type SyntheticStore struct {
	Channels  int
	Chunks    int
	ChunkSize int
}

// ChunkData implements ChunkStore.
func (s SyntheticStore) ChunkData(channel, chunk int) ([]byte, error) {
	if channel < 0 || channel >= s.Channels || chunk < 0 || chunk >= s.Chunks {
		return nil, fmt.Errorf("transport: chunk (%d,%d) outside store", channel, chunk)
	}
	data := make([]byte, s.ChunkSize)
	seed := byte(channel*31 + chunk*7 + 1)
	for i := range data {
		data[i] = seed + byte(i)
	}
	return data, nil
}
