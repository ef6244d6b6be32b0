// Package store is a real (non-simulated-time) declustered storage
// engine: the paper's parity-declustered layout serving actual bytes to
// concurrent goroutines, rather than simulated timings to an event loop.
//
// A Store stripes fixed-size units over C disk backends using the same
// internal/layout mappings as the simulator (block-design declustering or
// left-symmetric RAID 5, each optionally wrapped into P+Q dual parity) and
// stays available while disks are missing. One erasure code serves every
// layout (code.go): a stripe carries m parity units — P, the XOR of its
// data, and for m = 2 the GF(2^8) Reed–Solomon sum Q — and corrects m
// erasures, be they failed disks (Fail accepts up to m), damaged units, or
// a mix. Single parity is that code with no Q, not a second engine. Small
// writes read-modify-write the data unit and each parity (four accesses
// under P, six under P+Q); a range write covering at least half a stripe
// reads the units it leaves alone instead (none for a whole stripe); reads
// of lost units decode on the fly from the stripe's survivors; writes to
// lost units fold into the parities; and a background Rebuild sweep
// regenerates the oldest failed disk's contents onto a replacement stripe
// by stripe while client goroutines keep issuing requests.
//
// Concurrency model. Every operation runs under its parity stripe's lock
// (a striped RWMutex table): reads share, parity updates and rebuild
// exclude. Failure-state transitions (Fail, Rebuild's install of the
// replacement, the heal at the end of Rebuild) publish an immutable state
// snapshot through an atomic pointer; operations load the snapshot after
// acquiring their stripe lock, so the lock's happens-before edge
// guarantees each stripe's readers observe at least the state of the last
// writer to that stripe. An operation holds at most one stripe lock, so
// the engine cannot deadlock.
//
// Backends implement the Disk interface: NewMemDisk (a byte slice per
// disk) and OpenFileDisk (one flat file per disk) are provided; anything
// addressable by (unit offset → fixed-size block) can slot in, which is
// what keeps mirrored/hybrid organizations implementable later without
// touching the engine. Geometry and Sync belong to the interface, so a
// wrapper that embeds a Disk keeps both: New and Rebuild size every disk
// before using it, and Store.Sync reaches every member. NewFaultDisk
// wraps any backend with seed-driven fault injection (transients, latent
// sector errors, torn writes, corruption) for chaos testing.
//
// Failure and durability contract. Every unit carries an 8-byte checksum
// trailer (PhysUnitSize bytes on the backend); every read verifies it, so
// corruption is detected, never returned. Transient backend errors
// (ErrTransient) retry with exponential backoff; damage — media errors
// (ErrMedia) and persistent checksum mismatches — triggers the
// self-healing read: the unit is reconstructed from its stripe's
// survivors and rewritten in place, while the stripe's erasure budget
// lasts; beyond it the stripe's erased units are lost, not the operation:
// the stripe is rewritten whole with each lost data unit as its poison
// block, Stats.LostUnits counts them, reads of a lost unit report
// ErrUnrecoverable until it is next written (a range read still reads,
// returns and heals every other unit it covers), and the read, write,
// scrub or rebuild that found it carries on. Persistent errors score against the disk and
// Config.FailThreshold can auto-Fail a dying device. Parity is made
// crash-consistent by a region-granular write-intent log: a stripe's
// region is durably marked dirty before its first write and cleared
// lazily at Store.Sync / clean Close, and New resynchronizes every stripe
// of every dirty region before serving — so a crash mid-parity-update is
// always repaired at next open. Scrub is the background patrol sweep:
// it verifies every stripe's checksums and parity equations under live
// load, repairing damaged units and recomputing parity for stripes
// carrying the lost-write signature. One damage class is beyond unit
// checksums by construction: a write acknowledged but never persisted
// leaves the old, self-consistent unit in place — only the parity scrub
// notices, and it resolves the inconsistency in favor of data.
package store
