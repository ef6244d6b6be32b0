package store

import (
	"encoding/binary"
	"fmt"
	"os"

	"declust/internal/crc32c"
)

// Crash-consistent parity: the engine cannot make the multi-disk parity
// update atomic, so before the first write touches a stripe it durably
// marks the stripe's *region* dirty in a write-intent log. A crash
// mid-update therefore always leaves its stripe inside a marked region,
// and the recovery pass in New resynchronizes every stripe of every
// dirty region before the store serves traffic. Marks are region-granular
// (intentRegionStripes stripes per bit) and cleared lazily — at Store.Sync
// durability points and on clean Close — so the steady-state hot path
// pays one atomic load per write, not one fsync (the md write-intent
// bitmap discipline).
const intentRegionStripes = 64

// intentRegions returns how many intent-log regions cover numStripes.
func intentRegions(numStripes int64) int64 {
	return (numStripes + intentRegionStripes - 1) / intentRegionStripes
}

// IntentLog persists the dirty-region bitmap. Mark/MarkBatch and
// Clear/ClearBatch must be durable when they return; the engine
// serializes calls. The batch forms exist because durability barriers
// dominate the cost: the engine's group commit folds the marks of every
// concurrent first-writer into one MarkBatch, and recovery/Sync clear
// whole region sets at once. Implementations: a crash-safe file log
// (OpenFileIntent) and an in-memory one (used automatically when
// Config.Intent is nil, making mem-backed stores pay the same code path
// with no durability).
type IntentLog interface {
	// Init sizes (or validates) the log for the given region count and
	// returns the regions recorded dirty by a previous incarnation.
	Init(regions int64) (dirty []int64, err error)
	// Mark durably records region r dirty.
	Mark(r int64) error
	// MarkBatch durably records every listed region dirty with a single
	// durability barrier. On error none, some, or all marks may have
	// landed — safe, because a spurious mark only costs a resync.
	MarkBatch(rs []int64) error
	// Clear durably records region r clean.
	Clear(r int64) error
	// ClearBatch durably records every listed region clean with a single
	// durability barrier. On error a region's on-disk state is
	// indeterminate — safe in the conservative direction for the same
	// reason.
	ClearBatch(rs []int64) error
	// Close releases the log's resources.
	Close() error
}

// memIntent is the no-durability intent log: correct bookkeeping,
// nothing to recover.
type memIntent struct {
	dirty []bool
}

func (m *memIntent) Init(regions int64) ([]int64, error) {
	m.dirty = make([]bool, regions)
	return nil, nil
}
func (m *memIntent) Mark(r int64) error  { m.dirty[r] = true; return nil }
func (m *memIntent) Clear(r int64) error { m.dirty[r] = false; return nil }
func (m *memIntent) MarkBatch(rs []int64) error {
	for _, r := range rs {
		m.dirty[r] = true
	}
	return nil
}
func (m *memIntent) ClearBatch(rs []int64) error {
	for _, r := range rs {
		m.dirty[r] = false
	}
	return nil
}
func (m *memIntent) Close() error { return nil }

// fileIntent is the crash-safe intent log: a small header plus one byte
// per region, fsynced on every Mark and Clear. Marks are rare (first
// write into a clean region) so the fsyncs stay off the steady-state path.
//
//	bytes [0,8):   magic "DCLINTN\x01"
//	bytes [8,16):  region count, little-endian
//	bytes [16,20): crc32c of bytes [0,16), little-endian
//	bytes [32+r]:  1 if region r is dirty
type fileIntent struct {
	path string
	f    *os.File
}

const intentHeaderLen = 32

var intentMagic = [8]byte{'D', 'C', 'L', 'I', 'N', 'T', 'N', 1}

// OpenFileIntent returns a file-backed IntentLog at path. The file is
// created (or validated) lazily at Store construction, when Init learns
// the store's region count.
func OpenFileIntent(path string) IntentLog {
	return &fileIntent{path: path}
}

func (l *fileIntent) Init(regions int64) ([]int64, error) {
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() == 0 {
		hdr := make([]byte, intentHeaderLen)
		copy(hdr, intentMagic[:])
		binary.LittleEndian.PutUint64(hdr[8:], uint64(regions))
		binary.LittleEndian.PutUint32(hdr[16:], crc32c.Checksum(hdr[:16]))
		if _, err := f.WriteAt(hdr, 0); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Truncate(intentHeaderLen + regions); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
		return nil, nil
	}
	if fi.Size() < intentHeaderLen {
		f.Close()
		return nil, fmt.Errorf("store: %s is too short to be an intent log", l.path)
	}
	hdr := make([]byte, intentHeaderLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading %s intent header: %w", l.path, err)
	}
	if string(hdr[:8]) != string(intentMagic[:]) {
		f.Close()
		return nil, fmt.Errorf("store: %s is not an intent log (bad magic)", l.path)
	}
	if got := binary.LittleEndian.Uint32(hdr[16:]); got != crc32c.Checksum(hdr[:16]) {
		f.Close()
		return nil, fmt.Errorf("store: %s has a corrupt intent header", l.path)
	}
	if r := int64(binary.LittleEndian.Uint64(hdr[8:])); r != regions {
		f.Close()
		return nil, fmt.Errorf("store: %s covers %d regions, store has %d (geometry changed?)", l.path, r, regions)
	}
	bits := make([]byte, regions)
	if _, err := f.ReadAt(bits, intentHeaderLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading %s intent bitmap: %w", l.path, err)
	}
	var dirty []int64
	for r, b := range bits {
		if b != 0 {
			dirty = append(dirty, int64(r))
		}
	}
	l.f = f
	return dirty, nil
}

func (l *fileIntent) set(r int64, v byte) error {
	if _, err := l.f.WriteAt([]byte{v}, intentHeaderLen+r); err != nil {
		return err
	}
	return l.f.Sync()
}

// setBatch writes every region's byte, then pays one fsync for the lot —
// the group-commit payoff on the file-backed path.
func (l *fileIntent) setBatch(rs []int64, v byte) error {
	for _, r := range rs {
		if _, err := l.f.WriteAt([]byte{v}, intentHeaderLen+r); err != nil {
			return err
		}
	}
	return l.f.Sync()
}

func (l *fileIntent) Mark(r int64) error          { return l.set(r, 1) }
func (l *fileIntent) Clear(r int64) error         { return l.set(r, 0) }
func (l *fileIntent) MarkBatch(rs []int64) error  { return l.setBatch(rs, 1) }
func (l *fileIntent) ClearBatch(rs []int64) error { return l.setBatch(rs, 0) }

func (l *fileIntent) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
