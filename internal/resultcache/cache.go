// Package resultcache is a content-addressed cache for expensive,
// deterministic job results. Every result-producing pipeline in this
// repository -- retime, ATPG, fault simulation, the Fig. 6 flow -- is a
// pure function of a (circuit, fault list, options) triple, and PR 5's
// checkpoint layer already fingerprints that triple with FNV-1a
// identity hashes. This package promotes those hashes into a cache key,
// so an identical submission from any of a million users is answered
// with the stored payload instead of re-running the engine.
//
// Three layers compose:
//
//   - a sharded in-memory LRU with byte-accounted capacity (the hot
//     tier: lock per shard, O(1) get/put/evict);
//   - an optional on-disk store (Config.Dir) holding one versioned,
//     checksummed, atomically written entry file per key, following the
//     ATPG checkpoint pattern: canonical binary encoding, FNV-1a
//     trailer, tmp+fsync+rename writes, validate-or-discard on load, so
//     crash residue can never poison a result;
//   - a single-flight layer (Do) so N concurrent identical submissions
//     run the computation once and share its payload.
//
// Payloads are opaque byte strings chosen by the caller (the job
// service stores canonical JSON of its Result; the ATPG facade stores
// the canonical binary result payload), which makes the byte-identical
// guarantee trivial: a cache hit returns exactly the bytes the cold run
// produced.
package resultcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iofault"
	"repro/internal/metrics"
)

// DefaultMaxBytes is the in-memory budget when Config.MaxBytes is 0.
const DefaultMaxBytes = 64 << 20

// defaultShards is the shard count when Config.Shards is 0. A power of
// two so shard selection is a mask.
const defaultShards = 16

// memEntryOverhead approximates the per-entry bookkeeping cost (map
// slot, list element, key) charged against MaxBytes on top of the
// payload itself, so a flood of tiny entries cannot blow the budget.
const memEntryOverhead = 128

// errFlightAborted marks a single-flight leader that died (panicked or
// was killed) without settling its computation; waiters retry instead
// of treating the empty payload as a result.
var errFlightAborted = errors.New("resultcache: in-flight computation aborted")

// Key addresses one cached result: the FNV-1a identity hashes of the
// circuit, the fault list, and the result-affecting options (plus any
// caller-folded parameters -- see ParamsHash). Keys from different
// derivations must not collide by construction, so callers that cache
// differently encoded payloads (e.g. the job service's JSON vs the ATPG
// facade's binary) fold a distinct namespace into the Options slot.
type Key struct {
	Circuit uint64
	Faults  uint64
	Options uint64
}

// String renders the key as 48 hex digits in 3 fixed-width groups --
// the on-disk file stem and the HTTP ETag value.
func (k Key) String() string {
	const hexdig = "0123456789abcdef"
	var b [50]byte
	i := 0
	for gi, g := range [3]uint64{k.Circuit, k.Faults, k.Options} {
		if gi > 0 {
			b[i] = '-'
			i++
		}
		for shift := 60; shift >= 0; shift -= 4 {
			b[i] = hexdig[g>>uint(shift)&0xf]
			i++
		}
	}
	return string(b[:])
}

// ParseKey inverts Key.String.
func ParseKey(s string) (Key, bool) {
	if len(s) != 50 || s[16] != '-' || s[33] != '-' {
		return Key{}, false
	}
	var groups [3]uint64
	for gi := 0; gi < 3; gi++ {
		for _, c := range []byte(s[gi*17 : gi*17+16]) {
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			default:
				return Key{}, false
			}
			groups[gi] = groups[gi]<<4 | d
		}
	}
	return Key{groups[0], groups[1], groups[2]}, true
}

// ParamsHash folds a list of strings into one FNV-1a hash,
// length-prefixing each part so ("ab","c") and ("a","bc") differ. Use
// it to build the Options slot of a Key out of request parameters that
// the engine-level options hash does not cover (job kind, retime mode,
// prefix fill, raw test vectors, namespace tags).
func ParamsHash(parts ...string) uint64 {
	h := newFNV()
	for _, p := range parts {
		h = h.u64(uint64(len(p))).str(p)
	}
	return uint64(h)
}

// Source reports where a payload came from.
type Source uint8

// Payload sources: computed fresh (a miss), the in-memory tier, the
// on-disk store, or another in-flight computation (single-flight).
const (
	SourceNone Source = iota
	SourceMemory
	SourceDisk
	SourceShared
)

// String names the source the way the job view and the
// X-Cache-Status response header spell it.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "hit"
	case SourceDisk:
		return "hit-disk"
	case SourceShared:
		return "shared"
	}
	return "miss"
}

// Config tunes a Cache. The zero value is usable: default capacity and
// shard count, no disk store, a private metrics registry.
type Config struct {
	// MaxBytes bounds the in-memory tier (payload bytes plus a fixed
	// per-entry overhead); 0 means DefaultMaxBytes. The budget is split
	// evenly across shards. Entries larger than one shard's budget skip
	// the memory tier (they still reach the disk store).
	MaxBytes int64
	// Shards is the number of independently locked LRU shards, rounded
	// up to a power of two; 0 means 16.
	Shards int
	// Dir, when set, enables the on-disk store: one atomically written,
	// checksummed entry file per key, surviving restarts. Load failures
	// (torn, corrupt, version-skewed, mismatched) discard the file.
	Dir string
	// Metrics receives the cache.{hits,misses,stores,evictions,
	// singleflight_shared,...} counters; a private registry is created
	// when nil.
	Metrics *metrics.Registry
	// DiskFailThreshold is the number of consecutive disk IO errors
	// that opens the disk tier's circuit breaker (default 3): the cache
	// runs memory-only until a probe succeeds.
	DiskFailThreshold int
	// DiskProbeEvery is how often one IO attempt is let through while
	// the breaker is open (default 5s).
	DiskProbeEvery time.Duration
	// Logf, when set, receives breaker transition records (tier
	// disabled / recovered). The job service wires its logger's Warnf.
	Logf func(format string, args ...any)
}

// Cache is a sharded, byte-bounded, single-flight result cache. All
// methods are safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
	store  *diskStore
	reg    *metrics.Registry

	flightMu sync.Mutex
	flights  map[Key]*flight
}

type flight struct {
	done    chan struct{}
	waiters atomic.Int64 // callers parked on done (observability/tests)
	payload []byte
	err     error
}

type shard struct {
	mu       sync.Mutex
	items    map[Key]*list.Element
	ll       *list.List // front = most recently used
	bytes    int64
	maxBytes int64
}

type memEntry struct {
	key     Key
	payload []byte
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	n := 1
	for n < cfg.Shards || (cfg.Shards == 0 && n < defaultShards) {
		n <<= 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Cache{
		shards:  make([]shard, n),
		mask:    uint64(n - 1),
		reg:     reg,
		flights: make(map[Key]*flight),
	}
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*list.Element)
		c.shards[i].ll = list.New()
		c.shards[i].maxBytes = maxBytes / int64(n)
	}
	if cfg.Dir != "" {
		gate := iofault.Gate{Threshold: cfg.DiskFailThreshold, ProbeEvery: cfg.DiskProbeEvery}
		if gate.Threshold <= 0 {
			gate.Threshold = defaultDiskFailThreshold
		}
		if gate.ProbeEvery <= 0 {
			gate.ProbeEvery = defaultDiskProbeEvery
		}
		c.store = &diskStore{dir: cfg.Dir, reg: reg, logf: cfg.Logf, gate: gate}
	}
	return c
}

// Metrics returns the registry the cache records into.
func (c *Cache) Metrics() *metrics.Registry { return c.reg }

func (c *Cache) shard(k Key) *shard {
	// The key components are already FNV-1a hashes; a xor-fold spreads
	// them across shards without rehashing.
	return &c.shards[(k.Circuit^k.Faults^k.Options)&c.mask]
}

// Get looks the key up in the memory tier, then the disk store
// (promoting a disk hit into memory). ok reports a hit; src says which
// tier answered. Misses and hits are counted.
func (c *Cache) Get(k Key) (payload []byte, src Source, ok bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	if el, hit := sh.items[k]; hit {
		sh.ll.MoveToFront(el)
		payload = el.Value.(*memEntry).payload
		sh.mu.Unlock()
		c.reg.Counter("cache.hits").Inc()
		return payload, SourceMemory, true
	}
	sh.mu.Unlock()
	if c.store != nil {
		if payload, ok = c.store.load(k); ok {
			c.insert(k, payload)
			c.reg.Counter("cache.hits").Inc()
			return payload, SourceDisk, true
		}
	}
	c.reg.Counter("cache.misses").Inc()
	return nil, SourceNone, false
}

// peek returns the key's memory-tier payload without touching recency,
// the disk store or the hit/miss counters.
func (c *Cache) peek(k Key) ([]byte, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[k]; ok {
		return el.Value.(*memEntry).payload, true
	}
	return nil, false
}

// Put stores the payload under the key in the memory tier and, when
// configured, the disk store (which counts its own failures as
// cache.disk_errors and may be breaker-disabled). The payload must not
// be mutated by the caller afterwards (it is returned by reference on
// hits).
func (c *Cache) Put(k Key, payload []byte) {
	c.insert(k, payload)
	if c.store != nil {
		c.store.save(k, payload)
	}
	c.reg.Counter("cache.stores").Inc()
}

// Delete removes the key from both tiers (e.g. after a payload proved
// undecodable despite its checksum -- a schema skew across versions).
func (c *Cache) Delete(k Key) {
	sh := c.shard(k)
	sh.mu.Lock()
	if el, ok := sh.items[k]; ok {
		sh.remove(el)
	}
	sh.mu.Unlock()
	if c.store != nil {
		c.store.discard(k)
	}
	c.gauges()
}

// insert adds the entry to its shard, evicting from the cold end until
// the shard fits its budget. Oversized payloads are skipped: caching
// them would evict the entire shard for one entry.
func (c *Cache) insert(k Key, payload []byte) {
	cost := int64(len(payload)) + memEntryOverhead
	sh := c.shard(k)
	sh.mu.Lock()
	if cost > sh.maxBytes {
		sh.mu.Unlock()
		return
	}
	if el, ok := sh.items[k]; ok {
		// Same key, same deterministic payload: refresh recency only.
		sh.ll.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	sh.items[k] = sh.ll.PushFront(&memEntry{key: k, payload: payload})
	sh.bytes += cost
	evicted := int64(0)
	for sh.bytes > sh.maxBytes {
		sh.remove(sh.ll.Back())
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.reg.Counter("cache.evictions").Add(evicted)
	}
	c.gauges()
}

// remove unlinks one element; the shard mutex must be held.
func (sh *shard) remove(el *list.Element) {
	e := el.Value.(*memEntry)
	sh.ll.Remove(el)
	delete(sh.items, e.key)
	sh.bytes -= int64(len(e.payload)) + memEntryOverhead
}

// gauges refreshes the cache.bytes / cache.entries gauges.
func (c *Cache) gauges() {
	var bytes, entries int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		bytes += sh.bytes
		entries += int64(len(sh.items))
		sh.mu.Unlock()
	}
	c.reg.Gauge("cache.bytes").Set(bytes)
	c.reg.Gauge("cache.entries").Set(entries)
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the accounted in-memory size.
func (c *Cache) Bytes() int64 {
	var b int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		b += sh.bytes
		sh.mu.Unlock()
	}
	return b
}

// Do returns the cached payload for the key, computing it at most once
// across concurrent callers: the first caller (the leader) runs
// compute, stores the payload on success, and every concurrent caller
// with the same key blocks until the leader settles, then shares the
// payload (src == SourceShared, counted as cache.singleflight_shared).
//
// Failure does not stick: a leader that returns an error (its own
// cancellation, a chaos-injected fault) poisons nobody -- each waiter
// retries, one becomes the new leader, and a waiter whose own ctx
// expires returns its ctx error. A leader that panics unwinds normally
// (the panic propagates to its caller) and waiters see errFlightAborted
// internally, retrying the same way.
func (c *Cache) Do(ctx context.Context, k Key, compute func() ([]byte, error)) (payload []byte, src Source, err error) {
	for {
		if payload, src, ok := c.Get(k); ok {
			return payload, src, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, SourceNone, err
		}
		c.flightMu.Lock()
		if f, ok := c.flights[k]; ok {
			f.waiters.Add(1)
			c.flightMu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					c.reg.Counter("cache.singleflight_shared").Inc()
					return f.payload, SourceShared, nil
				}
				continue // leader failed; retry (and maybe lead)
			case <-ctx.Done():
				return nil, SourceNone, ctx.Err()
			}
		}
		// A leader stores its payload before it removes its flight, so
		// one may have settled between the Get above and this lock: look
		// in the memory tier again before computing a second time.
		if payload, ok := c.peek(k); ok {
			c.flightMu.Unlock()
			c.reg.Counter("cache.hits").Inc()
			return payload, SourceMemory, nil
		}
		f := &flight{done: make(chan struct{}), err: errFlightAborted}
		c.flights[k] = f
		c.flightMu.Unlock()
		return c.lead(k, f, compute)
	}
}

// lead runs the computation as the key's flight leader. The deferred
// settle runs even when compute panics, so waiters can never hang on a
// dead leader.
func (c *Cache) lead(k Key, f *flight, compute func() ([]byte, error)) ([]byte, Source, error) {
	defer func() {
		c.flightMu.Lock()
		delete(c.flights, k)
		c.flightMu.Unlock()
		close(f.done)
	}()
	f.payload, f.err = compute()
	if f.err == nil {
		c.Put(k, f.payload)
	}
	return f.payload, SourceNone, f.err
}

// Sweep scans the disk store and removes residue that must not be
// trusted: torn-write temp leftovers and entry files that fail to
// decode, carry the wrong version, or do not match the key in their own
// name. It reports the number of files removed and is a no-op without a
// disk store. The job service runs it during crash recovery.
func (c *Cache) Sweep() int {
	if c.store == nil {
		return 0
	}
	return c.store.sweep()
}

// fnv is inline FNV-1a/64 in value style, shared by ParamsHash and the
// entry codec.
type fnv uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newFNV() fnv { return fnvOffset64 }

func (h fnv) bytes(p []byte) fnv {
	x := uint64(h)
	for _, b := range p {
		x ^= uint64(b)
		x *= fnvPrime64
	}
	return fnv(x)
}

func (h fnv) str(s string) fnv { return h.bytes([]byte(s)) }

func (h fnv) u64(v uint64) fnv {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return h.bytes(b[:])
}
