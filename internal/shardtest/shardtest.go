// Package shardtest holds the one table of shard-directory lies that the
// tests of every directory reader — Huffman index shards, Huffman byte
// shards, the tag-4 lossless container — run their reader against.
package shardtest

import (
	"encoding/binary"
	"slices"

	"scdc/internal/shard"
)

// Lies takes apart good — a well-formed directory and its bodies, as
// shard.AppendDir wrote them for total decoded units — and returns copies
// that each tell one lie, by name. A reader must answer every one of them
// with verdict.ErrCorrupt, before it allocates its output.
func Lies(good []byte, total int, tagged bool) map[string][]byte {
	dir, err := shard.ParseDir(good, total, tagged, total)
	if err != nil {
		panic(err)
	}
	_, c := binary.Uvarint(good)
	count := func(k uint64) []byte { return append(binary.AppendUvarint(nil, k), good[c:]...) }
	edit := func(f func(d []shard.Shard) []shard.Shard) []byte {
		return shard.AppendDir(nil, f(slices.Clone(dir)), tagged)
	}
	lies := map[string][]byte{
		"zero count":               count(0),
		"more shards than bytes":   count(1 << 40),
		"more shards than units":   count(uint64(total) + 1),
		"more shards than entries": count(uint64(len(dir)) + 1),
		"empty shard":              edit(func(d []shard.Shard) []shard.Shard { return append([]shard.Shard{{}}, d...) }),
		"counts short of total":    edit(func(d []shard.Shard) []shard.Shard { d[0].N--; return d }),
		"counts past total":        edit(func(d []shard.Shard) []shard.Shard { d[0].N++; return d }),
		"directory cut short":      good[:c+1],
		"body past the end":        good[:len(good)-1],
		"trailing byte":            append(slices.Clone(good), 0),
	}
	if tagged {
		lies["bad tag"] = edit(func(d []shard.Shard) []shard.Shard { d[0].Tag = 0x7F; return d })
	}
	return lies
}
