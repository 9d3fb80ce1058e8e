package mpi

// Shared-memory ring transport: same-host rank pairs exchange the batched
// wire format through a single-producer single-consumer ring buffer over a
// mmap-ed MAP_SHARED file, so frames move with zero syscalls on the fast
// path — a memcpy into the ring, an atomic cursor publish, and at most one
// futex wake when the ring transitions empty→nonempty toward a sleeping
// consumer. The ring carries exactly the bytes the TCP progress engine
// would hand to net.Buffers: concatenated frames, read back one by one by
// readFrame, so per-stream sequencing, exactly-once delivery and (comm,
// srcRank) demultiplexing are inherited unchanged.
//
// Segment layout (one file per ordered rank pair, "ring-<src>-<dst>"):
//
//	offset   0  magic "DSHR" | version | capacity      (immutable header)
//	offset  64  head cursor  (uint64, monotonic)  ┐ producer cache line
//	offset  72  recvWake     (uint32 futex word)  │ consumer sleeps here
//	offset  76  recvWait     (uint32 waiter flag) ┘
//	offset 128  tail cursor  (uint64, monotonic)  ┐ consumer cache line
//	offset 136  sendWake     (uint32 futex word)  │ producer sleeps here
//	offset 140  sendWait     (uint32 waiter flag) ┘
//	offset 256  data region  (capacity bytes, cursors taken modulo capacity)
//
// Cursors are monotonic byte counts: available = head-tail, free =
// capacity-(head-tail), both well-defined under uint64 wraparound. The
// producer copies payload bytes first and publishes head second; a crash
// mid-copy leaves head unmoved, so the consumer can never observe a torn
// frame. Both sides spin briefly on an empty/full ring, then arm their
// wait flag, re-check, and futex-wait on their wake word in bounded
// slices; the opposite side bumps the word and issues one FUTEX_WAKE only
// when the flag says someone is (about to be) asleep — an idle pair costs
// nothing, a busy pair never syscalls.

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const (
	shmMagic      = 0x44534852 // "DSHR"
	shmVersion    = 1
	shmHeaderSize = 256

	shmOffMagic    = 0
	shmOffVersion  = 4
	shmOffCap      = 8
	shmOffHead     = 64
	shmOffRecvWake = 72
	shmOffRecvWait = 76
	shmOffTail     = 128
	shmOffSendWake = 136
	shmOffSendWait = 140

	// defaultShmRingBytes sizes one ring's data region. It matches the
	// progress engine's maxPendingBytes, so a full backpressure
	// window fits in the ring; tmpfs allocates pages lazily, so unused
	// rings cost only their touched header page.
	defaultShmRingBytes = 1 << 20

	// maxShmSegment bounds the mapping openShmRing accepts, so a corrupt
	// or hostile segment file cannot force an enormous mapping.
	maxShmSegment = 1 << 30

	// shmSpinIters is how many yield-spins a side burns on an empty/full
	// ring before arming its futex word and sleeping: long enough to ride
	// out the peer's in-flight memcpy, short enough not to melt a core.
	shmSpinIters = 200

	// shmWaitSlice bounds one futex sleep. Wakes make the slice
	// irrelevant on the healthy path; the bound is what turns a lost wake
	// or a closed ring into a short re-check instead of a hang.
	shmWaitSlice = 2 * time.Millisecond

	shmNonceFile = "nonce"
)

// errShmRetired aborts a ring write whose connection was retired by
// replaceRank: the frames belong to a dead incarnation and are dropped.
var errShmRetired = errors.New("mpi: shm conn retired")

// shmCounters aggregates one transport's ring activity, reported as
// Stats.Shm* and ultimately the mpi.shm.{conns,bytes,wakes,spins} job
// counters.
type shmCounters struct {
	conns atomic.Int64 // outgoing rings carrying traffic
	bytes atomic.Int64 // bytes moved through rings (headers included)
	wakes atomic.Int64 // futex wakes issued (empty→nonempty / full→space)
	spins atomic.Int64 // yield-spin iterations burned waiting on a cursor
}

// shmRing is one mapped segment. The producer side calls write, the
// consumer side calls Read (an io.Reader, so readFrame consumes the ring
// directly). wmu serializes producers (in practice the destination's one
// connWriter). mu guards the mapping's
// lifetime: accessors hold it shared, unmap takes it exclusively after
// stop has forced every waiter out.
type shmRing struct {
	path string
	m    []byte
	data []byte
	cap  uint64
	c    *shmCounters

	wmu      sync.Mutex
	mu       sync.RWMutex
	done     chan struct{}
	aborted  atomic.Bool
	stopOnce sync.Once
	unmapped bool
}

func (r *shmRing) u64(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&r.m[off]))
}

func (r *shmRing) u32(off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&r.m[off]))
}

// createShmRing initializes path as an empty ring segment with a data
// region of capBytes. The file is written sparse: tmpfs backs pages only
// once cursors sweep over them.
func createShmRing(path string, capBytes int) error {
	if capBytes <= 0 {
		capBytes = defaultShmRingBytes
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("mpi: create shm ring: %w", err)
	}
	defer f.Close()
	var hdr [shmHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[shmOffMagic:], shmMagic)
	binary.LittleEndian.PutUint32(hdr[shmOffVersion:], shmVersion)
	binary.LittleEndian.PutUint64(hdr[shmOffCap:], uint64(capBytes))
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("mpi: create shm ring: %w", err)
	}
	if err := f.Truncate(int64(shmHeaderSize + capBytes)); err != nil {
		return fmt.Errorf("mpi: create shm ring: %w", err)
	}
	return nil
}

// openShmRing maps an existing segment, validating the header and cursor
// region so a truncated, corrupt or hostile file is rejected instead of
// crashing a cursor computation later (FuzzShmRing drives exactly this
// surface).
func openShmRing(path string, c *shmCounters) (*shmRing, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("mpi: open shm ring: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mpi: open shm ring: %w", err)
	}
	size := st.Size()
	if size <= shmHeaderSize || size > maxShmSegment {
		return nil, fmt.Errorf("mpi: shm ring %s: bad segment size %d", path, size)
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mpi: mmap shm ring: %w", err)
	}
	r := &shmRing{
		path: path,
		m:    m,
		data: m[shmHeaderSize:],
		cap:  uint64(size - shmHeaderSize),
		c:    c,
		done: make(chan struct{}),
	}
	if got := binary.LittleEndian.Uint32(m[shmOffMagic:]); got != shmMagic {
		r.unmap()
		return nil, fmt.Errorf("mpi: shm ring %s: bad magic %#x", path, got)
	}
	if got := binary.LittleEndian.Uint32(m[shmOffVersion:]); got != shmVersion {
		r.unmap()
		return nil, fmt.Errorf("mpi: shm ring %s: version %d (want %d)", path, got, shmVersion)
	}
	if got := binary.LittleEndian.Uint64(m[shmOffCap:]); got != r.cap {
		r.unmap()
		return nil, fmt.Errorf("mpi: shm ring %s: capacity %d does not match segment size %d", path, got, size)
	}
	head, tail := r.u64(shmOffHead).Load(), r.u64(shmOffTail).Load()
	if head-tail > r.cap { // also rejects tail ahead of head (uint64 underflow)
		r.unmap()
		return nil, fmt.Errorf("mpi: shm ring %s: cursors head=%d tail=%d exceed capacity %d", path, head, tail, r.cap)
	}
	return r, nil
}

// abort retires the ring immediately: the consumer returns io.EOF on its
// next Read even if bytes remain — exactly how severing a socket drops
// its in-flight tail. Rank replacement relies on this: the dead
// incarnation's residual frames must never reach the fresh stream state.
func (r *shmRing) abort() {
	r.aborted.Store(true)
	r.stop()
}

// stop forces both sides out of the ring: the producer fails fast, the
// consumer drains what is available and then sees io.EOF. It does not
// unmap — callers unmap once every goroutine that could touch the
// mapping has exited.
func (r *shmRing) stop() {
	r.stopOnce.Do(func() {
		close(r.done)
		// Kick both futex words so a sleeping side re-checks immediately
		// instead of waiting out its slice.
		r.u32(shmOffRecvWake).Add(1)
		futexWake(r.u32(shmOffRecvWake))
		r.u32(shmOffSendWake).Add(1)
		futexWake(r.u32(shmOffSendWake))
	})
}

func (r *shmRing) unmap() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.unmapped {
		r.unmapped = true
		syscall.Munmap(r.m)
	}
}

// write copies p into the ring, blocking while it is full. cancel, when
// non-nil, is polled between wait slices and aborts the write with its
// error (connection retirement, transport shutdown); timeout > 0 bounds
// the whole write — a consumer that stopped draining is how a dead
// same-host peer manifests here, so the caller turns the timeout into its
// failure-detector verdict. Batches larger than the ring stream through
// it chunk by chunk as the consumer frees space.
func (r *shmRing) write(p []byte, timeout time.Duration, cancel func() error) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	head, tail := r.u64(shmOffHead), r.u64(shmOffTail)
	h := head.Load()
	for len(p) > 0 {
		free := r.cap - (h - tail.Load())
		if free == 0 {
			if err := r.waitFree(h, deadline, cancel); err != nil {
				return err
			}
			continue
		}
		n := min(uint64(len(p)), free)
		pos := h % r.cap
		n1 := min(n, r.cap-pos)
		copy(r.data[pos:pos+n1], p[:n1])
		copy(r.data[:n-n1], p[n1:n])
		h += n
		head.Store(h) // publish: bytes before cursor, never a torn frame
		if r.c != nil {
			r.c.bytes.Add(int64(n))
		}
		// One wake, and only toward a consumer that armed its wait flag;
		// a draining consumer sees the new head on its next load for free.
		if r.u32(shmOffRecvWait).Load() != 0 {
			r.u32(shmOffRecvWake).Add(1)
			futexWake(r.u32(shmOffRecvWake))
			if r.c != nil {
				r.c.wakes.Add(1)
			}
		}
		p = p[n:]
	}
	return nil
}

// waitFree blocks until the ring has room past producer cursor h:
// spin-yield first, then arm sendWait, re-check, and futex-sleep in
// bounded slices. Called with r.mu read-held.
func (r *shmRing) waitFree(h uint64, deadline time.Time, cancel func() error) error {
	tail := r.u64(shmOffTail)
	sendWait, sendWake := r.u32(shmOffSendWait), r.u32(shmOffSendWake)
	for spins := 0; ; {
		if r.cap-(h-tail.Load()) > 0 {
			return nil
		}
		select {
		case <-r.done:
			return ErrClosed
		default:
		}
		if spins < shmSpinIters {
			spins++
			if r.c != nil {
				r.c.spins.Add(1)
			}
			runtime.Gosched()
			continue
		}
		if cancel != nil {
			if err := cancel(); err != nil {
				return err
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("mpi: shm ring full, consumer not draining: %w", ErrTimeout)
		}
		sendWait.Store(1)
		v := sendWake.Load()
		if r.cap-(h-tail.Load()) == 0 { // re-check after arming (Dekker)
			futexWait(sendWake, v, shmWaitSlice)
		}
		sendWait.Store(0)
	}
}

// Read implements io.Reader for the consumer side: readFrame pulls the
// batched wire format straight off the ring. It blocks while the ring is
// empty and returns io.EOF once the ring is stopped and drained, so a
// reader loop terminates exactly like a closed socket's.
func (r *shmRing) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	head, tail := r.u64(shmOffHead), r.u64(shmOffTail)
	recvWait, recvWake := r.u32(shmOffRecvWait), r.u32(shmOffRecvWake)
	t0 := tail.Load()
	for spins := 0; ; {
		if r.aborted.Load() {
			return 0, io.EOF
		}
		if avail := head.Load() - t0; avail > 0 {
			n := min(avail, uint64(len(p)))
			pos := t0 % r.cap
			n1 := min(n, r.cap-pos)
			copy(p[:n1], r.data[pos:pos+n1])
			copy(p[n1:n], r.data[:n-n1])
			tail.Store(t0 + n) // publish: frees the region for the producer
			// Mirror of the producer's wake: only a producer blocked on a
			// full ring armed sendWait.
			if r.u32(shmOffSendWait).Load() != 0 {
				r.u32(shmOffSendWake).Add(1)
				futexWake(r.u32(shmOffSendWake))
				if r.c != nil {
					r.c.wakes.Add(1)
				}
			}
			return int(n), nil
		}
		select {
		case <-r.done:
			return 0, io.EOF // stopped and drained
		default:
		}
		if spins < shmSpinIters {
			spins++
			if r.c != nil {
				r.c.spins.Add(1)
			}
			runtime.Gosched()
			continue
		}
		recvWait.Store(1)
		v := recvWake.Load()
		if head.Load()-t0 == 0 { // re-check after arming (Dekker)
			futexWait(recvWake, v, shmWaitSlice)
		}
		recvWait.Store(0)
	}
}

// ---------------------------------------------------------------------------
// Segment directories and the same-host handshake

// shmRingPath names the segment carrying src→dst traffic. src and dst are
// world ranks in a distributed world; an in-process world is a single
// producer process and uses src 0 for every ring.
func shmRingPath(dir string, src, dst int) string {
	return filepath.Join(dir, fmt.Sprintf("ring-%d-%d", src, dst))
}

// ShmBaseDir is where segment directories are created by default:
// /dev/shm when present (Linux tmpfs, the canonical home for shared
// memory), the system temp dir otherwise.
func ShmBaseDir() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// NewShmDir creates an empty segment directory under parent, named
// datampi-shm-<pid>-* after this process. It first removes every
// datampi-shm-<pid>-* under parent whose pid names no live process: a run
// that was killed could not remove its own. Directories without a pid in
// their name are left alone.
func NewShmDir(parent string) (string, error) {
	stale, _ := filepath.Glob(filepath.Join(parent, "datampi-shm-*-*"))
	for _, d := range stale {
		pid, _, _ := strings.Cut(strings.TrimPrefix(filepath.Base(d), "datampi-shm-"), "-")
		if n, err := strconv.Atoi(pid); err == nil && n > 0 && syscall.Kill(n, 0) == syscall.ESRCH {
			os.RemoveAll(d)
		}
	}
	return os.MkdirTemp(parent, fmt.Sprintf("datampi-shm-%d-", os.Getpid()))
}

// CreateShmSegments initializes dir as the segment directory for an
// n-rank same-host world: one ring file per ordered rank pair plus a
// nonce file binding the directory to this boot of this host. The
// launcher calls it once before spawning workers; every file is sparse,
// so the n² rings cost pages only as traffic touches them.
func CreateShmSegments(dir string, n, ringBytes int) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("mpi: shm segments: %w", err)
	}
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Errorf("mpi: shm segments: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, shmNonceFile), []byte(hex.EncodeToString(nonce[:])), 0o600); err != nil {
		return fmt.Errorf("mpi: shm segments: %w", err)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if err := createShmRing(shmRingPath(dir, src, dst), ringBytes); err != nil {
				return err
			}
		}
	}
	return nil
}

// ShmHostID derives the identity a rank advertises alongside its TCP
// address: a hash of the kernel boot id and the segment directory's nonce
// file. Two ranks computing equal ids proved they read the same nonce on
// the same booted kernel — a shared filesystem alone (an NFS-exported
// tmpdir, say) cannot fake that — so the pair can safely map each other's
// rings. Ranks on different hosts, or without access to the directory,
// derive nothing and keep TCP.
func ShmHostID(dir string) (string, error) {
	nonce, err := os.ReadFile(filepath.Join(dir, shmNonceFile))
	if err != nil {
		return "", fmt.Errorf("mpi: shm host id: %w", err)
	}
	h := sha256.New()
	h.Write(bootID())
	h.Write([]byte{0})
	h.Write(nonce)
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// bootID identifies the running kernel instance. The boot id is what
// distinguishes "same directory over a network filesystem" from "same
// machine"; hosts without the proc file (non-Linux) fall back to the
// hostname, which still separates distinct machines in practice.
func bootID() []byte {
	if b, err := os.ReadFile("/proc/sys/kernel/random/boot_id"); err == nil {
		return []byte(strings.TrimSpace(string(b)))
	}
	host, _ := os.Hostname()
	return []byte("host:" + host)
}

// shmAddrSep splits a directory address descriptor into the dialable TCP
// address and the advertised shm host identity.
const shmAddrSep = "|shm="

// ShmAddr tags a rank's advertised TCP address with its shm host
// identity. The rendezvous directory carries the descriptor as an opaque
// string; peers whose own identity matches select the ring transport for
// this pair, everyone else strips the tag and dials.
func ShmAddr(addr, hostID string) string { return addr + shmAddrSep + hostID }

// parseShmAddr splits a directory descriptor; hostID is empty for a plain
// TCP address.
func parseShmAddr(desc string) (addr, hostID string) {
	if i := strings.Index(desc, shmAddrSep); i >= 0 {
		return desc[:i], desc[i+len(shmAddrSep):]
	}
	return desc, ""
}
