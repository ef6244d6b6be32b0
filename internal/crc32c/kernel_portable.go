//go:build !amd64 || purego

package crc32c

import "hash/crc32"

// No vector body on this platform (or the purego tag asked for none):
// hash/crc32 is the whole kernel.
func update(crc uint32, p []byte) uint32 { return crc32.Update(crc, table, p) }
