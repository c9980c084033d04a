package main

import (
	"encoding/binary"
	"fmt"
)

// Every 4 KiB block the benchmark writes describes itself: a 16-byte
// header (magic, file, block number, version) followed by a fill of
// 8-byte words derived from those four values. A read therefore has
// exactly one expected value, and a flipped byte, a stale version,
// another file's block or a short read all show as a mismatch.

const (
	blockSize  = 4096
	blockMagic = 0x70666231 // "pfb1"
)

// blockID names the content of one block: which file incarnation,
// which block of it, and which write of that block.
type blockID struct {
	file, block, version uint32
}

// fillSeed mixes a block's identity into the first fill word
// (splitmix64 finalizer).
func fillSeed(id blockID) uint64 {
	z := uint64(id.file)<<32 | uint64(id.block)
	z ^= uint64(id.version) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillBlock writes the self-describing content of id into b, which
// must be blockSize bytes long.
func fillBlock(b []byte, id blockID) {
	binary.LittleEndian.PutUint32(b[0:], blockMagic)
	binary.LittleEndian.PutUint32(b[4:], id.file)
	binary.LittleEndian.PutUint32(b[8:], id.block)
	binary.LittleEndian.PutUint32(b[12:], id.version)
	w := fillSeed(id)
	for off := 16; off < blockSize; off += 8 {
		binary.LittleEndian.PutUint64(b[off:], w)
		w += 0x9e3779b97f4a7c15
	}
}

// fillBlocks writes consecutive blocks of one file, starting at block
// first, with the versions vers[i] for block first+i.
func fillBlocks(b []byte, file, first uint32, vers []uint32) {
	for i, v := range vers {
		fillBlock(b[i*blockSize:(i+1)*blockSize], blockID{file, first + uint32(i), v})
	}
}

// checkBlock reports whether b holds exactly the content of id.
func checkBlock(b []byte, id blockID) error {
	if len(b) != blockSize {
		return fmt.Errorf("block %d of file %d: short block, %d bytes", id.block, id.file, len(b))
	}
	got := blockID{
		file:    binary.LittleEndian.Uint32(b[4:]),
		block:   binary.LittleEndian.Uint32(b[8:]),
		version: binary.LittleEndian.Uint32(b[12:]),
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != blockMagic {
		return fmt.Errorf("block %d of file %d: bad magic %#x", id.block, id.file, m)
	}
	if got != id {
		return fmt.Errorf("block %d of file %d: holds file %d block %d version %d, want version %d",
			id.block, id.file, got.file, got.block, got.version, id.version)
	}
	w := fillSeed(id)
	for off := 16; off < blockSize; off += 8 {
		if binary.LittleEndian.Uint64(b[off:]) != w {
			return fmt.Errorf("block %d of file %d version %d: fill differs at byte %d", id.block, id.file, id.version, off)
		}
		w += 0x9e3779b97f4a7c15
	}
	return nil
}

// checkRead verifies a read of len(vers) blocks starting at block
// first of file: the reply must be exactly that long and every block
// must carry its expected version.
func checkRead(data []byte, file, first uint32, vers []uint32) error {
	if want := len(vers) * blockSize; len(data) != want {
		return fmt.Errorf("file %d at block %d: short read, %d of %d bytes", file, first, len(data), want)
	}
	for i, v := range vers {
		if err := checkBlock(data[i*blockSize:(i+1)*blockSize], blockID{file, first + uint32(i), v}); err != nil {
			return err
		}
	}
	return nil
}
