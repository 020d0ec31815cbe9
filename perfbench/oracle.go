package main

import (
	"encoding/binary"
	"hash/crc32"
)

// blockSize is the request size of the served workloads: one 4 KiB page.
const blockSize = 4096

// stampMagic opens every block the benchmark writes.
const stampMagic = 0x53524342 // "SRCB"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// A stamped block carries its identity and a checksum, so a read can tell
// corruption (checksum), misdirection (client, page) and staleness
// (version) apart:
//
//	[0:4) magic  [4:8) client  [8:16) page  [16:24) version
//	[24:28) crc32c of [0:24) and [28:4096)  [28:4096) payload
//
// The payload is a pseudo-random function of the header, so distinct
// versions of one page differ in every word.

// stamp fills b (blockSize bytes) with version ver of page, owned by
// client.
func stamp(b []byte, client int, page int64, ver uint64) {
	binary.LittleEndian.PutUint32(b[0:], stampMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(client))
	binary.LittleEndian.PutUint64(b[8:], uint64(page))
	binary.LittleEndian.PutUint64(b[16:], ver)
	x := uint64(page)*0x9E3779B97F4A7C15 ^ ver<<32 ^ uint64(client)
	binary.LittleEndian.PutUint32(b[28:], uint32(splitmix(&x)))
	for i := 32; i < blockSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], splitmix(&x))
	}
	binary.LittleEndian.PutUint32(b[24:], blockSum(b))
}

func blockSum(b []byte) uint32 {
	return crc32.Update(crc32.Checksum(b[:24], castagnoli), castagnoli, b[28:blockSize])
}

func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intact reports whether b is exactly version ver of page as written by
// client. Version 0 is a page never written: all zeros.
func intact(b []byte, client int, page int64, ver uint64) bool {
	if ver == 0 {
		for _, c := range b[:blockSize] {
			if c != 0 {
				return false
			}
		}
		return true
	}
	return binary.LittleEndian.Uint32(b[0:]) == stampMagic &&
		binary.LittleEndian.Uint32(b[4:]) == uint32(client) &&
		binary.LittleEndian.Uint64(b[8:]) == uint64(page) &&
		binary.LittleEndian.Uint64(b[16:]) == ver &&
		binary.LittleEndian.Uint32(b[24:]) == blockSum(b)
}
