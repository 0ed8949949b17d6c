package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TCP transport: one OS process (or goroutine, in tests) per rank,
// persistent length-prefixed-frame connections between every pair of
// ranks, and a rank-0 rendezvous that maps world ranks to addresses.
//
// Bootstrap protocol
//
//  1. Every rank opens a peer listener (cfg.Bind, ephemeral port by
//     default) before contacting anyone, so by the time addresses are
//     known every listener is accepting.
//  2. Rank 0 listens on cfg.Coord. Ranks 1..P-1 dial it (with retry —
//     the launcher starts processes in arbitrary order) and send a hello
//     frame carrying their rank and advertised peer address.
//  3. Once all P-1 hellos are in, rank 0 sends the full rank->address
//     table back on each bootstrap connection and closes it.
//  4. Full mesh: rank i dials the peer listener of every rank j < i and
//     identifies itself with a 4-byte rank header; rank j accepts
//     P-1-j such links. Each link is used bidirectionally.
//
// Data frames (frame.go has the layout and the ownership of frame and
// receive memory) carry the payload serialized by wire.go at send time —
// the one copy the frame boundary requires. A per-peer
// writer goroutine drains an unbounded queue so Deliver keeps the eager,
// never-blocking semantics the exchange patterns assume; a per-peer
// reader goroutine decodes frames straight into the local mailbox, where
// the ordinary matching machinery (blocking receives, the posted-receive
// table, Stream notifications) takes over. One connection per
// peer plus in-order framing is what preserves MPI's non-overtaking
// guarantee across the wire.

// TCPConfig configures one rank's ConnectTCP.
type TCPConfig struct {
	// Rank and World are this process's world rank and the world size.
	Rank, World int
	// Coord is the rendezvous address (host:port). Rank 0 listens on it;
	// every other rank dials it until Timeout.
	Coord string
	// Bind is the address the rank's peer listener binds ("127.0.0.1:0"
	// when empty — loopback, ephemeral port). For multi-machine runs
	// bind an externally reachable interface, e.g. "0.0.0.0:0".
	Bind string
	// Advertise optionally overrides the host other ranks dial (the
	// bound port is appended). Needed when Bind is a wildcard address.
	Advertise string
	// Timeout bounds the whole bootstrap (default 30s).
	Timeout time.Duration

	// coordLn, when non-nil on rank 0, is a pre-bound rendezvous
	// listener (RunTCP binds port 0 first to learn the address).
	coordLn net.Listener
}

// tcpPeer is one live connection to a peer rank.
type tcpPeer struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte // encoded frames awaiting the writer
	closed bool     // no further enqueues; writer flushes and half-closes

	// Recycled memory of this link (see frame.go): frames the writer has
	// finished with, and what the reader decodes into.
	frames freeList[byte]
	recv   recvBufs

	// Wire counters for this link, atomically bumped on the send path
	// (Deliver) and the receive path (readLoop) and read by WireStats at
	// any time. Outbound counts are taken at enqueue, not at socket write:
	// they measure what the rank asked the wire to carry, independent of
	// writer-queue drain timing.
	framesOut   atomic.Int64
	bytesOut    atomic.Int64 // whole frames, header included
	payloadOut  atomic.Int64 // serialized payload only
	framesIn    atomic.Int64
	bytesIn     atomic.Int64
	payloadIn   atomic.Int64
	queueHWM    atomic.Int64 // deepest the writer queue has been
	serializeNs atomic.Int64 // time spent in encodeFrame
}

func (p *tcpPeer) enqueue(frame []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("mpi: send on closed TCP transport")
	}
	p.queue = append(p.queue, frame)
	if depth := int64(len(p.queue)); depth > p.queueHWM.Load() {
		p.queueHWM.Store(depth) // mu serializes enqueuers; plain check-then-store is safe
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// writeLoop drains the queue into the connection. On close it flushes
// everything enqueued so far and half-closes the write side, which is
// what lets a finished rank's last messages reach slower peers.
func (p *tcpPeer) writeLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	bw := bufio.NewWriterSize(p.conn, wireWindow)
	var batch [][]byte // swapped with the queue, so neither is reallocated
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		batch, p.queue = p.queue, batch[:0]
		done := p.closed && len(batch) == 0
		p.mu.Unlock()
		if done {
			bw.Flush()
			if tc, ok := p.conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
		for i, f := range batch {
			if _, err := bw.Write(f); err != nil {
				return // peer gone; reader side reports if it matters
			}
			// Write has copied f or put it on the socket: the frame is free.
			p.frames.put(f)
			batch[i] = nil
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// tcpTransport implements Transport for one rank.
type tcpTransport struct {
	self, world int
	box         *mailbox
	peers       []*tcpPeer // indexed by world rank, nil at self
	wg          sync.WaitGroup
	closing     atomic.Bool
	dialRetries atomic.Int64 // failed bootstrap dial attempts (rendezvous + mesh)
}

func (t *tcpTransport) Self() int          { return t.self }
func (t *tcpTransport) WorldSize() int     { return t.world }
func (t *tcpTransport) LocalBox() *mailbox { return t.box }
func (t *tcpTransport) Name() string       { return "tcp" }
func (t *tcpTransport) Copies() bool       { return true }

// Deliver serializes the message into a frame and hands it to the peer's
// writer. Self-sends skip the wire entirely (same-process delivery, the
// channel transport's semantics), which collectives never hit but user
// code may.
func (t *tcpTransport) Deliver(dst int, m message) {
	if dst == t.self {
		t.box.put(m)
		return
	}
	p := t.peers[dst]
	t0 := time.Now()
	frame := encodeFrame(m, &p.frames)
	p.serializeNs.Add(int64(time.Since(t0)))
	p.framesOut.Add(1)
	p.bytesOut.Add(int64(len(frame)))
	p.payloadOut.Add(int64(len(frame)) - frameHeaderLen)
	p.enqueue(frame)
}

// Release puts a []complex128 received from src back on that link's receive
// list, for the reader to decode a later frame into.
func (t *tcpTransport) Release(src int, payload any) {
	if b, ok := payload.([]complex128); ok && src != t.self {
		t.peers[src].recv.c128.put(b)
	}
}

// readLoop decodes frames from one peer connection into the local
// mailbox until EOF (peer closed) or a transport-shutdown error. Inbound
// counters are bumped before the mailbox put, so a blocking receive that
// returns a message happens-after its counters were updated (the mailbox
// mutex orders them) — which is what lets tests read exact counts right
// after a collective completes.
func (t *tcpTransport) readLoop(p *tcpPeer) {
	defer t.wg.Done()
	conn := p.conn
	defer conn.Close()
	br := bufio.NewReaderSize(conn, wireWindow)
	for {
		m, payloadLen, err := readFrame(br, &p.recv)
		if err != nil {
			if err == io.EOF || t.closing.Load() {
				return
			}
			panic(fmt.Sprintf("mpi: tcp rank %d: %v", t.self, err))
		}
		p.framesIn.Add(1)
		p.bytesIn.Add(int64(payloadLen) + frameHeaderLen)
		p.payloadIn.Add(int64(payloadLen))
		t.box.put(m)
	}
}

// Close flushes every peer's outbound queue and half-closes the write
// sides; readers drain until each peer does the same. It blocks until
// the rank's transport goroutines exit, so a returned Close means every
// byte this rank sent is on the wire and every byte peers sent it has
// been matched or parked in the mailbox.
func (t *tcpTransport) Close() error {
	t.closing.Store(true)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.cond.Signal()
	}
	t.wg.Wait()
	return nil
}

// ConnectTCP bootstraps this rank's TCP transport (see the protocol at
// the top of the file) and returns its world communicator. The caller
// owns the communicator's lifetime: Close it after the last operation.
func ConnectTCP(cfg TCPConfig) (*Comm, error) {
	t, err := dialWorld(cfg)
	if err != nil {
		return nil, err
	}
	group := make([]int, cfg.World)
	for i := range group {
		group[i] = i
	}
	return &Comm{t: t, id: 1, rank: cfg.Rank, group: group}, nil
}

func dialWorld(cfg TCPConfig) (*tcpTransport, error) {
	if cfg.World <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.World {
		return nil, fmt.Errorf("mpi: tcp rank %d of world %d", cfg.Rank, cfg.World)
	}
	if cfg.Coord == "" && cfg.coordLn == nil {
		return nil, errors.New("mpi: tcp transport needs a coordinator address")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	deadline := time.Now().Add(cfg.Timeout)

	t := &tcpTransport{self: cfg.Rank, world: cfg.World, box: newMailbox(),
		peers: make([]*tcpPeer, cfg.World)}
	if cfg.World == 1 {
		if cfg.coordLn != nil {
			cfg.coordLn.Close()
		}
		return t, nil
	}

	bind := cfg.Bind
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	peerLn, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("mpi: tcp peer listener: %w", err)
	}
	defer peerLn.Close()
	myAddr := advertisedAddr(peerLn.Addr().String(), cfg.Advertise)

	addrs, retries, err := rendezvous(cfg, myAddr, deadline)
	if err != nil {
		return nil, err
	}
	t.dialRetries.Add(int64(retries))

	// Accept links from every higher rank while dialing every lower one.
	type accepted struct {
		rank int
		conn net.Conn
		err  error
	}
	nAccept := cfg.World - 1 - cfg.Rank
	accCh := make(chan accepted, nAccept)
	for i := 0; i < nAccept; i++ {
		go func() {
			if dl, ok := peerLn.(*net.TCPListener); ok {
				dl.SetDeadline(deadline)
			}
			conn, err := peerLn.Accept()
			if err != nil {
				accCh <- accepted{err: err}
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				accCh <- accepted{err: err}
				return
			}
			accCh <- accepted{rank: int(binary.LittleEndian.Uint32(hdr[:])), conn: conn}
		}()
	}
	for j := 0; j < cfg.Rank; j++ {
		conn, retries, err := dialRetry(addrs[j], deadline)
		t.dialRetries.Add(int64(retries))
		if err != nil {
			return nil, fmt.Errorf("mpi: tcp rank %d dialing rank %d at %s: %w", cfg.Rank, j, addrs[j], err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(cfg.Rank))
		if _, err := conn.Write(hdr[:]); err != nil {
			return nil, fmt.Errorf("mpi: tcp rank %d identifying to rank %d: %w", cfg.Rank, j, err)
		}
		t.addPeer(j, conn)
	}
	for i := 0; i < nAccept; i++ {
		a := <-accCh
		if a.err != nil {
			return nil, fmt.Errorf("mpi: tcp rank %d accepting peer link: %w", cfg.Rank, a.err)
		}
		if a.rank <= cfg.Rank || a.rank >= cfg.World || t.peers[a.rank] != nil {
			return nil, fmt.Errorf("mpi: tcp rank %d: unexpected peer identity %d", cfg.Rank, a.rank)
		}
		t.addPeer(a.rank, a.conn)
	}
	return t, nil
}

// addPeer registers a live connection and starts its reader and writer.
func (t *tcpTransport) addPeer(rank int, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p := &tcpPeer{conn: conn}
	p.cond = sync.NewCond(&p.mu)
	t.peers[rank] = p
	t.wg.Add(2)
	go p.writeLoop(&t.wg)
	go t.readLoop(p)
}

// advertisedAddr combines a bound address with an optional advertise
// host: the port always comes from the actual listener.
func advertisedAddr(bound, advertise string) string {
	if advertise == "" {
		return bound
	}
	_, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if strings.Contains(advertise, ":") && !strings.HasPrefix(advertise, "[") {
		advertise = "[" + advertise + "]" // bare IPv6
	}
	return net.JoinHostPort(strings.Trim(advertise, "[]"), port)
}

// rendezvous runs the rank-0 bootstrap exchange and returns the world
// rank -> peer address table plus the number of failed coordinator dial
// attempts (always 0 on rank 0, which listens).
func rendezvous(cfg TCPConfig, myAddr string, deadline time.Time) ([]string, int, error) {
	if cfg.Rank == 0 {
		ln := cfg.coordLn
		if ln == nil {
			var err error
			ln, err = net.Listen("tcp", cfg.Coord)
			if err != nil {
				return nil, 0, fmt.Errorf("mpi: tcp coordinator listener on %s: %w", cfg.Coord, err)
			}
		}
		defer ln.Close()
		if dl, ok := ln.(*net.TCPListener); ok {
			dl.SetDeadline(deadline)
		}
		addrs := make([]string, cfg.World)
		addrs[0] = myAddr
		conns := make([]net.Conn, 0, cfg.World-1)
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for have := 1; have < cfg.World; have++ {
			conn, err := ln.Accept()
			if err != nil {
				return nil, 0, fmt.Errorf("mpi: coordinator waiting for %d more ranks: %w", cfg.World-have, err)
			}
			conn.SetDeadline(deadline)
			conns = append(conns, conn)
			rank, addr, err := readHello(conn)
			if err != nil {
				return nil, 0, fmt.Errorf("mpi: coordinator hello: %w", err)
			}
			if rank <= 0 || rank >= cfg.World || addrs[rank] != "" {
				return nil, 0, fmt.Errorf("mpi: coordinator: bad or duplicate hello from rank %d", rank)
			}
			addrs[rank] = addr
		}
		table := encodeTable(addrs)
		for _, conn := range conns {
			if _, err := conn.Write(table); err != nil {
				return nil, 0, fmt.Errorf("mpi: coordinator sending table: %w", err)
			}
		}
		return addrs, 0, nil
	}

	conn, retries, err := dialRetry(cfg.Coord, deadline)
	if err != nil {
		return nil, retries, fmt.Errorf("mpi: rank %d dialing coordinator %s: %w", cfg.Rank, cfg.Coord, err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	if err := writeHello(conn, cfg.Rank, myAddr); err != nil {
		return nil, retries, fmt.Errorf("mpi: rank %d hello: %w", cfg.Rank, err)
	}
	addrs, err := decodeTable(conn, cfg.World)
	if err != nil {
		return nil, retries, fmt.Errorf("mpi: rank %d receiving address table: %w", cfg.Rank, err)
	}
	return addrs, retries, nil
}

func writeHello(conn net.Conn, rank int, addr string) error {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(addr)))
	buf = append(buf, addr...)
	_, err := conn.Write(buf)
	return err
}

func readHello(conn net.Conn) (rank int, addr string, err error) {
	var hdr [8]byte
	if _, err = io.ReadFull(conn, hdr[:]); err != nil {
		return 0, "", err
	}
	rank = int(binary.LittleEndian.Uint32(hdr[:4]))
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > 4096 {
		return 0, "", fmt.Errorf("address of %d bytes", n)
	}
	b := make([]byte, n)
	if _, err = io.ReadFull(conn, b); err != nil {
		return 0, "", err
	}
	return rank, string(b), nil
}

func encodeTable(addrs []string) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(addrs)))
	for _, a := range addrs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func decodeTable(r io.Reader, world int) ([]string, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if n := int(binary.LittleEndian.Uint32(hdr[:])); n != world {
		return nil, fmt.Errorf("table of %d ranks, world is %d", n, world)
	}
	addrs := make([]string, world)
	for i := range addrs {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > 4096 {
			return nil, fmt.Errorf("address of %d bytes", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		addrs[i] = string(b)
	}
	return addrs, nil
}

// dialRetry dials addr until it succeeds or the deadline passes —
// launchers start ranks in arbitrary order, so early dials race the
// listener coming up. retries counts the failed attempts.
func dialRetry(addr string, deadline time.Time) (conn net.Conn, retries int, err error) {
	backoff := 5 * time.Millisecond
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, retries, nil
		}
		retries++
		if time.Now().Add(backoff).After(deadline) {
			return nil, retries, err
		}
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// RunTCP is Run over the TCP transport: it starts size ranks as
// goroutines in this process, each with its own transport bootstrapped
// through a real localhost rendezvous and carrying every message through
// the full serialize/frame/socket path. Tests and benchmarks use it to
// exercise the wire without spawning processes; cmd/dnsrun is the
// process-per-rank launcher.
func RunTCP(size int, fn func(c *Comm)) {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("mpi: RunTCP coordinator: %v", err))
	}
	coord := ln.Addr().String()
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		cfg := TCPConfig{Rank: r, World: size, Coord: coord}
		if r == 0 {
			cfg.coordLn = ln
		}
		go func() {
			defer wg.Done()
			c, err := ConnectTCP(cfg)
			if err != nil {
				panic(fmt.Sprintf("mpi: RunTCP rank %d: %v", cfg.Rank, err))
			}
			fn(c)
			c.Close()
		}()
	}
	wg.Wait()
}
