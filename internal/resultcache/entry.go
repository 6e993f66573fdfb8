package resultcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/iofault"
	"repro/internal/metrics"
)

// DiskIOFaultSite names the disk tier's iofault site: chaos tests arm
// iofault.Point(DiskIOFaultSite, op) to fail entry reads and atomic
// writes with ENOSPC/EIO/torn writes.
const DiskIOFaultSite = "cache"

// Disk-tier circuit breaker defaults (Config.DiskFailThreshold /
// DiskProbeEvery override them).
const (
	defaultDiskFailThreshold = 3
	defaultDiskProbeEvery    = 5 * time.Second
)

// On-disk entry format, after the ATPG checkpoint pattern: a canonical
// self-checksummed binary frame that either decodes to exactly what was
// written or is discarded.
//
//	magic   "RESCACHE"                     8 bytes
//	version uint32 LE                      4 bytes
//	key     3 x uint64 LE                 24 bytes
//	len     canonical uvarint
//	payload len bytes
//	sum     FNV-1a/64 over everything above, uint64 LE
//
// The encoding is canonical -- DecodeEntry accepts exactly the byte
// strings Entry.Encode produces -- so decode+encode round-trips
// byte-identically (the FuzzCacheEntryDecode invariant).

// EntryVersion is the on-disk entry format version this build reads
// and writes.
const EntryVersion = 1

// entryMagic leads every encoded cache entry.
const entryMagic = "RESCACHE"

// entryExt is the entry file suffix in a store directory.
const entryExt = ".rce"

// Entry decode errors. Decode failures wrap ErrEntryCorrupt, except a
// valid frame carrying an unknown version, which wraps ErrEntryVersion.
var (
	ErrEntryCorrupt = errors.New("resultcache: corrupt or truncated cache entry")
	ErrEntryVersion = errors.New("resultcache: unsupported cache entry version")
)

// Entry is one decoded on-disk cache record: the key it answers and the
// opaque result payload.
type Entry struct {
	Key     Key
	Payload []byte
}

// Encode serializes the entry into its canonical checksummed form.
func (e *Entry) Encode() []byte {
	buf := make([]byte, 0, 64+len(e.Payload))
	buf = append(buf, entryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, EntryVersion)
	buf = binary.LittleEndian.AppendUint64(buf, e.Key.Circuit)
	buf = binary.LittleEndian.AppendUint64(buf, e.Key.Faults)
	buf = binary.LittleEndian.AppendUint64(buf, e.Key.Options)
	buf = binary.AppendUvarint(buf, uint64(len(e.Payload)))
	buf = append(buf, e.Payload...)
	sum := uint64(newFNV().bytes(buf))
	return binary.LittleEndian.AppendUint64(buf, sum)
}

// DecodeEntry parses an encoded entry. It never panics on arbitrary
// input: every failure mode (bad magic, checksum mismatch, truncation,
// non-canonical varint, length mismatch, trailing bytes) returns an
// error wrapping ErrEntryCorrupt, except a valid frame with an unknown
// version, which wraps ErrEntryVersion.
func DecodeEntry(data []byte) (*Entry, error) {
	headerLen := len(entryMagic) + 4 + 3*8
	if len(data) < headerLen+1+8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrEntryCorrupt, len(data))
	}
	if string(data[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrEntryCorrupt)
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	if uint64(newFNV().bytes(body)) != binary.LittleEndian.Uint64(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrEntryCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(entryMagic):]); v != EntryVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d",
			ErrEntryVersion, v, EntryVersion)
	}
	e := &Entry{}
	pos := len(entryMagic) + 4
	e.Key.Circuit = binary.LittleEndian.Uint64(body[pos:])
	e.Key.Faults = binary.LittleEndian.Uint64(body[pos+8:])
	e.Key.Options = binary.LittleEndian.Uint64(body[pos+16:])
	pos += 24
	n, vn := binary.Uvarint(body[pos:])
	if vn <= 0 || vn != uvarintLen(n) {
		return nil, fmt.Errorf("%w: non-canonical payload length", ErrEntryCorrupt)
	}
	pos += vn
	if uint64(len(body)-pos) != n {
		return nil, fmt.Errorf("%w: payload length %d, %d bytes remain",
			ErrEntryCorrupt, n, len(body)-pos)
	}
	e.Payload = body[pos:]
	return e, nil
}

// uvarintLen is the minimal encoded length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// diskStore is the durable tier: one entry file per key under dir,
// written atomically and validated (or discarded) on every load.
//
// A circuit breaker (an iofault.Gate) guards every IO attempt: after
// threshold consecutive IO errors (reads and writes both count; a
// missing entry file does not) the tier disables itself -- the memory
// tier and the engines keep answering, loads miss, saves are skipped
// and counted as cache.disk_skipped -- and one attempt per probeEvery
// is let through as a probe. The first probe that succeeds re-enables
// the tier. The cache.disk_degraded gauge tracks the breaker state,
// disk_errors / disk_recovered count the transitions' raw material, so
// /metrics shows a sick disk long before an operator reads logs.
type diskStore struct {
	dir  string
	reg  *metrics.Registry
	logf func(format string, args ...any) // nil = silent

	mu   sync.Mutex
	gate iofault.Gate
}

// path names the entry file for a key.
func (d *diskStore) path(k Key) string {
	return filepath.Join(d.dir, k.String()+entryExt)
}

// allowAttempt reports whether an IO attempt may proceed: always while
// the breaker is closed, once per probeEvery while open. A denied
// attempt counts as cache.disk_skipped.
func (d *diskStore) allowAttempt() bool {
	d.mu.Lock()
	ok := d.gate.Allow(time.Now())
	d.mu.Unlock()
	if !ok {
		d.reg.Counter("cache.disk_skipped").Inc()
	}
	return ok
}

// record feeds one attempt's outcome to the breaker. Decode failures
// and missing files must not be reported here -- only real IO errors
// open the breaker, only real IO successes close it.
func (d *diskStore) record(op string, err error) {
	var msg string
	d.mu.Lock()
	if err == nil {
		if d.gate.OK() {
			d.reg.Counter("cache.disk_recovered").Inc()
			d.reg.Gauge("cache.disk_degraded").Set(0)
			msg = fmt.Sprintf("resultcache: disk tier recovered (probe %s ok)", op)
		}
	} else {
		d.reg.Counter("cache.disk_errors").Inc()
		if d.gate.Fail(time.Now()) {
			d.reg.Gauge("cache.disk_degraded").Set(1)
			msg = fmt.Sprintf("resultcache: disk tier disabled after %d consecutive IO errors (last %s: %v); probing every %s",
				d.gate.Threshold, op, err, d.gate.ProbeEvery)
		}
	}
	d.mu.Unlock()
	if msg != "" && d.logf != nil {
		d.logf("%s", msg)
	}
}

// load reads and validates the key's entry file. Anything unusable --
// torn, corrupt, version-skewed, or carrying a different key (a renamed
// file) -- is discarded with its temp residue so it can never be
// consulted again, and counts as cache.disk_discarded. A read IO error
// counts as cache.disk_errors and feeds the breaker.
func (d *diskStore) load(k Key) ([]byte, bool) {
	if !d.allowAttempt() {
		return nil, false
	}
	path := d.path(k)
	data, err := iofault.ReadFile(DiskIOFaultSite, path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			d.record("read", err)
		}
		return nil, false
	}
	d.record("read", nil)
	e, err := DecodeEntry(data)
	if err != nil || e.Key != k {
		d.discard(k)
		return nil, false
	}
	return e.Payload, true
}

// save atomically persists the entry through iofault.WriteAtomic,
// directory fsync included. A crash mid-write leaves at worst stale
// temp residue that the recovery sweep removes. Failures count as
// cache.disk_errors and feed the breaker.
func (d *diskStore) save(k Key, payload []byte) error {
	if !d.allowAttempt() {
		return nil // breaker open: silently memory-only, counted as skipped
	}
	err := os.MkdirAll(d.dir, 0o755)
	if err == nil {
		err = iofault.WriteAtomic(DiskIOFaultSite, d.path(k), (&Entry{Key: k, Payload: payload}).Encode(), true)
	}
	d.record("write", err)
	return err
}

// discard deletes the key's entry file and any torn-write residue.
func (d *diskStore) discard(k Key) {
	iofault.Discard(d.path(k))
	d.reg.Counter("cache.disk_discarded").Inc()
}

// sweep removes crash residue from the store directory: temp files of
// torn writes, files whose name is not a well-formed key, and entries
// that fail to decode or whose embedded key disagrees with their name.
// Valid entries are left in place (they are exactly what restarts warm
// up from), and so is any entry that cannot be read: a transient read
// error (EIO) must never destroy a good entry. Returns the number of
// files removed.
func (d *diskStore) sweep() int {
	removed := iofault.SweepTmp(d.dir, "*"+entryExt)
	files, _ := filepath.Glob(filepath.Join(d.dir, "*"+entryExt))
	for _, p := range files {
		name := filepath.Base(p)
		if k, ok := ParseKey(name[:len(name)-len(entryExt)]); ok {
			data, err := iofault.ReadFile(DiskIOFaultSite, p)
			if err != nil {
				continue // unreadable is no verdict on the entry
			}
			if e, err := DecodeEntry(data); err == nil && e.Key == k {
				continue
			}
		}
		if os.Remove(p) == nil {
			removed++
		}
	}
	if removed > 0 {
		d.reg.Counter("cache.disk_discarded").Add(int64(removed))
	}
	return removed
}
