package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"declust/internal/crc32c"
)

// Disk is one backing device: a flat array of fixed-size physical units
// addressed by unit offset. A physical unit is a store data unit plus its
// checksum trailer — PhysUnitSize(unitSize) bytes — and every ReadUnit /
// WriteUnit buffer is exactly that long. Implementations must be safe for
// concurrent use at distinct offsets; the engine serializes same-stripe
// (and therefore same-offset) access through its stripe locks.
//
// Every method is part of the contract, so a wrapper that embeds a Disk
// forwards all of them: New and Rebuild size each disk by its Geometry
// before using it, and Store.Sync reaches every disk in service.
type Disk interface {
	// ReadUnit fills dst (exactly one physical unit) with the unit at off.
	ReadUnit(off int64, dst []byte) error
	// WriteUnit stores src (exactly one physical unit) at off.
	WriteUnit(off int64, src []byte) error
	// Geometry reports the capacity in units and the DATA unit size.
	Geometry() (units int64, unitSize int)
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases the backend's resources.
	Close() error
}

// ErrDiskFailed is returned by I/O addressed to a disk slot that has been
// failed with Store.Fail. Seeing it surface from a Store method indicates
// an engine bug: the engine routes around failed slots.
var ErrDiskFailed = errors.New("store: disk failed")

// ErrTransient marks I/O errors that are worth retrying: a fresh attempt
// draws a fresh outcome. Backends wrap it (errors.Is) to tell the engine's
// retry policy that the failure is not persistent.
var ErrTransient = errors.New("store: transient I/O error")

// ErrMedia marks a persistent unrecoverable read error (a latent sector
// error): the unit is unreadable until it is next written, so the engine
// reconstructs its contents from the stripe's survivors and rewrites it.
var ErrMedia = errors.New("store: unrecoverable media error")

// ErrUnrecoverable reports genuine data loss: a read of a data unit whose
// stripe was found with more damaged or missing units than it has parity
// units (two under single parity, three under P+Q), which the code cannot
// reconstruct. The stripe was rewritten with the unit marked lost (its
// poison block), and reads report this until the unit is next written.
var ErrUnrecoverable = errors.New("store: unrecoverable stripe (multiple damaged units)")

// geometry is a backend's capacity and data unit size. It answers
// Geometry and checks every access against both.
type geometry struct {
	units    int64
	unitSize int // data unit size; physical units add trailerLen
}

func (g geometry) Geometry() (int64, int) { return g.units, g.unitSize }

func (g geometry) bounds(off int64, n int) error {
	if off < 0 || off >= g.units {
		return fmt.Errorf("store: unit offset %d out of range [0,%d)", off, g.units)
	}
	if n != PhysUnitSize(g.unitSize) {
		return fmt.Errorf("store: buffer is %d bytes, physical unit size is %d", n, PhysUnitSize(g.unitSize))
	}
	return nil
}

// memDisk is an in-memory backend: one contiguous byte slice.
type memDisk struct {
	geometry
	data []byte
}

// NewMemDisk returns an in-memory Disk sized for a store with the given
// data unit size: units physical blocks of PhysUnitSize(unitSize) bytes,
// zero-filled (so every unit reads as valid zeroes).
func NewMemDisk(units int64, unitSize int) Disk {
	return &memDisk{
		geometry: geometry{units: units, unitSize: unitSize},
		data:     make([]byte, units*int64(PhysUnitSize(unitSize))),
	}
}

func (d *memDisk) ReadUnit(off int64, dst []byte) error {
	if err := d.bounds(off, len(dst)); err != nil {
		return err
	}
	copy(dst, d.data[off*int64(PhysUnitSize(d.unitSize)):])
	return nil
}

func (d *memDisk) WriteUnit(off int64, src []byte) error {
	if err := d.bounds(off, len(src)); err != nil {
		return err
	}
	copy(d.data[off*int64(PhysUnitSize(d.unitSize)):], src)
	return nil
}

func (d *memDisk) Sync() error  { return nil }
func (d *memDisk) Close() error { return nil }

// File-backed disks start with a fixed-size superblock recording the
// format version and geometry, so a file created for one geometry can
// never be silently reinterpreted under another.
//
//	bytes [0,8):   magic "DCLSTOR\x02"
//	bytes [8,12):  format version (currently 2), little-endian
//	bytes [12,16): data unit size in bytes, little-endian
//	bytes [16,24): capacity in units, little-endian
//	bytes [24,28): crc32c of bytes [0,24), little-endian
//
// The rest of the superblock is reserved (zero). Physical unit o lives at
// byte superblockLen + o·PhysUnitSize(unitSize).
const (
	superblockLen     = 512
	fileFormatVersion = 2
)

var fileMagic = [8]byte{'D', 'C', 'L', 'S', 'T', 'O', 'R', 2}

// fileDisk is a file-backed backend: one flat file per disk. Writes go
// through the OS page cache (no per-write fsync); call Sync for
// durability points.
type fileDisk struct {
	geometry
	f *os.File
}

func encodeSuperblock(units int64, unitSize int) []byte {
	sb := make([]byte, superblockLen)
	copy(sb, fileMagic[:])
	binary.LittleEndian.PutUint32(sb[8:], fileFormatVersion)
	binary.LittleEndian.PutUint32(sb[12:], uint32(unitSize))
	binary.LittleEndian.PutUint64(sb[16:], uint64(units))
	binary.LittleEndian.PutUint32(sb[24:], crc32c.Checksum(sb[:24]))
	return sb
}

// validateSuperblock checks sb against the requested geometry and returns
// a descriptive error on any mismatch.
func validateSuperblock(path string, sb []byte, units int64, unitSize int) error {
	if string(sb[:8]) != string(fileMagic[:]) {
		return fmt.Errorf("store: %s is not a store disk (bad superblock magic; pre-superblock files must be recreated)", path)
	}
	if got := binary.LittleEndian.Uint32(sb[24:]); got != crc32c.Checksum(sb[:24]) {
		return fmt.Errorf("store: %s has a corrupt superblock (header checksum mismatch)", path)
	}
	if v := binary.LittleEndian.Uint32(sb[8:]); v != fileFormatVersion {
		return fmt.Errorf("store: %s has format version %d, this engine writes version %d", path, v, fileFormatVersion)
	}
	if us := int(binary.LittleEndian.Uint32(sb[12:])); us != unitSize {
		return fmt.Errorf("store: %s was formatted with %d-byte units, store wants %d-byte units", path, us, unitSize)
	}
	if u := int64(binary.LittleEndian.Uint64(sb[16:])); u != units {
		return fmt.Errorf("store: %s was formatted for %d units, store wants %d", path, u, units)
	}
	return nil
}

// OpenFileDisk opens a file-backed Disk at path sized for a store with
// the given data unit size. A missing or empty file is formatted (a
// superblock recording the geometry is written and synced, and the file
// is extended to hold units physical blocks); an existing file must carry
// a matching superblock — any geometry or format mismatch is a
// descriptive error, never a silent reinterpretation.
func OpenFileDisk(path string, units int64, unitSize int) (Disk, error) {
	if units <= 0 || unitSize <= 0 {
		return nil, fmt.Errorf("store: file disk geometry %d units x %d B is invalid", units, unitSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := superblockLen + units*int64(PhysUnitSize(unitSize))
	switch {
	case fi.Size() == 0:
		// Fresh file: format it. The superblock is synced so a crash
		// between formatting and first use cannot leave a headerless file.
		if _, err := f.WriteAt(encodeSuperblock(units, unitSize), 0); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	case fi.Size() < superblockLen:
		f.Close()
		return nil, fmt.Errorf("store: %s is %d bytes, too short to hold a superblock (corrupt or not a store disk)", path, fi.Size())
	default:
		sb := make([]byte, superblockLen)
		if _, err := f.ReadAt(sb, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading %s superblock: %w", path, err)
		}
		if err := validateSuperblock(path, sb, units, unitSize); err != nil {
			f.Close()
			return nil, err
		}
	}
	if fi.Size() < size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &fileDisk{geometry: geometry{units: units, unitSize: unitSize}, f: f}, nil
}

// OpenFileDisks opens C file-backed disks under dir, named disk0000.dat
// onward. On error, disks opened so far are closed.
func OpenFileDisks(dir string, c int, units int64, unitSize int) ([]Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	disks := make([]Disk, 0, c)
	for i := 0; i < c; i++ {
		d, err := OpenFileDisk(filepath.Join(dir, fmt.Sprintf("disk%04d.dat", i)), units, unitSize)
		if err != nil {
			for _, prev := range disks {
				prev.Close()
			}
			return nil, err
		}
		disks = append(disks, d)
	}
	return disks, nil
}

func (d *fileDisk) byteOff(off int64) int64 {
	return superblockLen + off*int64(PhysUnitSize(d.unitSize))
}

func (d *fileDisk) ReadUnit(off int64, dst []byte) error {
	if err := d.bounds(off, len(dst)); err != nil {
		return err
	}
	_, err := d.f.ReadAt(dst, d.byteOff(off))
	return err
}

func (d *fileDisk) WriteUnit(off int64, src []byte) error {
	if err := d.bounds(off, len(src)); err != nil {
		return err
	}
	_, err := d.f.WriteAt(src, d.byteOff(off))
	return err
}

// Sync flushes buffered writes to stable storage.
func (d *fileDisk) Sync() error { return d.f.Sync() }

func (d *fileDisk) Close() error { return d.f.Close() }

// deadDisk occupies a failed slot so that any I/O mistakenly routed to it
// fails loudly instead of touching stale bytes.
type deadDisk struct{}

func (deadDisk) ReadUnit(int64, []byte) error  { return ErrDiskFailed }
func (deadDisk) WriteUnit(int64, []byte) error { return ErrDiskFailed }
func (deadDisk) Geometry() (int64, int)        { return 0, 0 }
func (deadDisk) Sync() error                   { return nil }
func (deadDisk) Close() error                  { return nil }
