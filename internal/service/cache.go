// Package service is the distributed, resumable experiment fabric
// behind `spectralfly serve` and `spectralfly submit`. It exploits the
// contract the declarative sweep core established: every cell of a
// grid is a pure function of a stable content-addressed key, so cell
// results can be cached on disk across runs (Cache, an append-only log
// of digest-checked records, which is also how a killed run resumes)
// and computed by any worker process that holds the same code version
// (Coordinator / RunWorker over HTTP/JSON).
//
// The package is deliberately grid-agnostic: it moves (index, key,
// payload) triples. What a key means and how a payload is produced
// belong to internal/sweep; how a grid is described on the wire
// belongs to the CLI. That separation keeps the fabric reusable and
// free of import cycles with the public façade.
package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record framing: magic | keylen | paylen | sha256(payload) | key |
// payload, lengths little-endian uint32.
const (
	recMagic  = "SFC1"
	recHeader = len(recMagic) + 4 + 4 + sha256.Size
	segSuffix = ".seg"
)

// Cache is a content-addressed result store on the filesystem: an
// append-only log of self-checking records split into segment files
// directly under the cache root. Each Cache writes only to its own
// segment, created on its first Put with O_EXCL, so concurrent writers
// (a coordinator and loopback workers sharing one directory) never
// share a file. A Put is one unbuffered write of one record: the
// entry reaches the kernel before Put returns, with no per-Put fsync.
//
// OpenCache indexes the segments present at Open; a Cache sees those
// entries plus its own Puts. Get reads one record and checks its key
// and payload digest, so a corrupt or torn entry is a miss, never a
// wrong result. Entries are content-addressed, so double writes are
// idempotent by construction.
//
// A Cache is safe for concurrent use. IO failures are deliberately
// soft: a failed or corrupt read is a miss and a failed write is
// dropped (the cell simply stays uncached), with the first error
// retained for reporting — the caller re-derives anything it cannot
// load.
type Cache struct {
	dir string

	mu    sync.RWMutex
	index map[string]recLoc
	segs  []*segment
	w     *os.File // this instance's segment; nil until the first Put
	wseg  int32    // w's position in segs
	wsize int64    // bytes written to w
	buf   []byte   // record buffer Put reuses

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64

	err atomic.Pointer[error] // first soft IO error, for diagnostics
}

// recLoc places one record: its segment, offset and length.
type recLoc struct {
	seg int32
	n   uint32
	off int64
}

// segment is one log file; its read handle opens on first use.
type segment struct {
	path string
	once sync.Once
	f    *os.File
	err  error
}

func (s *segment) file() (*os.File, error) {
	s.once.Do(func() { s.f, s.err = os.Open(s.path) })
	return s.f, s.err
}

// CacheStats counts one Cache's traffic since Open.
type CacheStats struct {
	Hits   int64 // Get found a valid entry
	Misses int64 // Get found nothing (or an unreadable entry)
	Puts   int64 // entries written
}

// DefaultCacheDir returns the per-user cache root used when no
// -cache-dir is given: <user cache dir>/spectralfly.
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(base, "spectralfly"), nil
}

// OpenCache opens (creating if necessary) a cache rooted at dir and
// indexes the segments already there; an empty dir selects
// DefaultCacheDir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultCacheDir(); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, index: make(map[string]recLoc)}
	for _, e := range ents {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), segSuffix) {
			c.scan(filepath.Join(dir, e.Name()))
		}
	}
	return c, nil
}

// scan indexes one segment's records up to the first one that is not
// whole: a bad magic (recorded in Err), or a length running past EOF —
// the torn tail of a crash or of a write still in flight.
func (c *Cache) scan(path string) {
	f, err := os.Open(path)
	if err != nil {
		c.note(err)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		c.note(err)
		return
	}
	seg := int32(len(c.segs))
	c.segs = append(c.segs, &segment{path: path})
	r := bufio.NewReaderSize(f, 64<<10)
	var hdr [recHeader]byte
	for off := int64(0); ; {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				c.note(err)
			}
			return
		}
		if string(hdr[:len(recMagic)]) != recMagic {
			c.note(fmt.Errorf("service: cache segment %s: bad record magic at offset %d", path, off))
			return
		}
		klen := int64(binary.LittleEndian.Uint32(hdr[4:]))
		plen := int64(binary.LittleEndian.Uint32(hdr[8:]))
		n := int64(recHeader) + klen + plen
		if off+n > fi.Size() || n > math.MaxUint32 {
			return
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(r, key); err != nil {
			c.note(err)
			return
		}
		if _, err := r.Discard(int(plen)); err != nil {
			c.note(err)
			return
		}
		c.index[string(key)] = recLoc{seg: seg, n: uint32(n), off: off}
		off += n
	}
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Get returns the payload stored under key, or (nil, false) on a miss.
// A record whose stored key or payload digest does not match is a
// miss, recorded in Err.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.RLock()
	loc, ok := c.index[key]
	var seg *segment
	if ok {
		seg = c.segs[loc.seg]
	}
	c.mu.RUnlock()
	if ok {
		payload, err := seg.read(loc, key)
		if err == nil {
			c.hits.Add(1)
			return payload, true
		}
		c.note(err)
	}
	c.misses.Add(1)
	return nil, false
}

// read loads the record at loc and returns its payload if the record
// holds key and the payload matches its digest.
func (s *segment) read(loc recLoc, key string) ([]byte, error) {
	f, err := s.file()
	if err != nil {
		return nil, err
	}
	rec := make([]byte, loc.n)
	if _, err := f.ReadAt(rec, loc.off); err != nil {
		return nil, fmt.Errorf("service: cache segment %s offset %d: %w", s.path, loc.off, err)
	}
	klen := int(binary.LittleEndian.Uint32(rec[4:]))
	if string(rec[:len(recMagic)]) != recMagic || klen != len(key) || recHeader+klen > len(rec) ||
		string(rec[recHeader:recHeader+klen]) != key {
		return nil, s.corrupt(loc, key)
	}
	payload := rec[recHeader+klen:]
	sum := sha256.Sum256(payload)
	if int(binary.LittleEndian.Uint32(rec[8:])) != len(payload) || !bytes.Equal(sum[:], rec[len(recMagic)+8:recHeader]) {
		return nil, s.corrupt(loc, key)
	}
	return payload, nil
}

func (s *segment) corrupt(loc recLoc, key string) error {
	return fmt.Errorf("service: cache segment %s offset %d: corrupt entry for key %q", s.path, loc.off, key)
}

// Put stores payload under key. Best effort: errors are recorded (see
// Err) and otherwise swallowed — a cell that fails to cache is simply
// recomputed next time.
func (c *Cache) Put(key string, payload []byte) {
	n := int64(recHeader) + int64(len(key)) + int64(len(payload))
	if n > math.MaxUint32 {
		c.note(fmt.Errorf("service: cache entry for key %q is %d bytes, over the record limit", key, n))
		return
	}
	sum := sha256.Sum256(payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		if err := c.newSegment(); err != nil {
			c.note(err)
			return
		}
	}
	rec := append(c.buf[:0], recMagic...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(key)))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, sum[:]...)
	rec = append(rec, key...)
	rec = append(rec, payload...)
	c.buf = rec
	if _, err := c.w.Write(rec); err != nil {
		// The segment may now end in a torn record; later Puts start a
		// fresh one, and this one stays open for reads.
		c.note(err)
		c.w = nil
		return
	}
	c.index[key] = recLoc{seg: c.wseg, n: uint32(n), off: c.wsize}
	c.wsize += n
	c.puts.Add(1)
}

// newSegment creates this instance's segment, named by creation time
// and pid. Callers hold c.mu.
func (c *Cache) newSegment() error {
	stamp := time.Now().UnixNano()
	for i := 0; ; i++ {
		path := filepath.Join(c.dir, fmt.Sprintf("%016x-%d-%d%s", stamp, os.Getpid(), i, segSuffix))
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		seg := &segment{path: path}
		seg.once.Do(func() { seg.f = f })
		c.w, c.wseg, c.wsize = f, int32(len(c.segs)), 0
		c.segs = append(c.segs, seg)
		return nil
	}
}

// Stats returns the hit/miss/put counters since Open.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Puts: c.puts.Load()}
}

// Err returns the first soft IO error the cache swallowed, if any.
func (c *Cache) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *Cache) note(err error) {
	if err == nil {
		return
	}
	c.err.CompareAndSwap(nil, &err)
}
