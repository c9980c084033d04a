package main

import (
	"strings"
	"testing"
)

func written(file, first uint32, vers []uint32) []byte {
	b := make([]byte, len(vers)*blockSize)
	fillBlocks(b, file, first, vers)
	return b
}

func TestVerifierAcceptsWhatWasWritten(t *testing.T) {
	vers := []uint32{1, 7, 3, 2}
	if err := checkRead(written(5, 10, vers), 5, 10, vers); err != nil {
		t.Fatal(err)
	}
}

func TestVerifierRejects(t *testing.T) {
	vers := []uint32{1, 2, 3, 4}
	cases := []struct {
		name string
		data func() []byte
		want string
	}{
		{"flipped fill byte", func() []byte {
			b := written(5, 0, vers)
			b[2*blockSize+1000] ^= 0x10
			return b
		}, "fill differs"},
		{"flipped header byte", func() []byte {
			b := written(5, 0, vers)
			b[blockSize+1] ^= 1
			return b
		}, "bad magic"},
		{"stale version", func() []byte {
			return written(5, 0, []uint32{1, 2, 2, 4})
		}, "want version 3"},
		{"another file's block", func() []byte {
			b := written(5, 0, vers)
			copy(b[blockSize:2*blockSize], written(6, 1, []uint32{2}))
			return b
		}, "holds file 6"},
		{"another block of the same file", func() []byte {
			b := written(5, 0, vers)
			copy(b[0:blockSize], written(5, 3, []uint32{1}))
			return b
		}, "block 3"},
		{"short read", func() []byte {
			return written(5, 0, vers)[:3*blockSize+100]
		}, "short read"},
		{"empty read", func() []byte { return nil }, "short read"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkRead(c.data(), 5, 0, vers)
			if err == nil {
				t.Fatal("verifier accepted corrupted data")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestFillDependsOnEveryField(t *testing.T) {
	base := blockID{1, 2, 3}
	seen := map[uint64]blockID{fillSeed(base): base}
	for _, id := range []blockID{{2, 2, 3}, {1, 3, 3}, {1, 2, 4}, {2, 1, 3}} {
		s := fillSeed(id)
		if prev, dup := seen[s]; dup {
			t.Fatalf("fill seed of %v equals that of %v", id, prev)
		}
		seen[s] = id
	}
}
