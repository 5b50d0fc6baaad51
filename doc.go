// Package repro is a Go reproduction of "Endurable Transient Inconsistency
// in Byte-Addressable Persistent B+-Tree" (FAST 2018) grown into a small
// persistent-memory storage stack. It contains the FAST and FAIR algorithms,
// a simulated persistent-memory substrate with crash injection, the paper's
// baseline index structures, a benchmark harness regenerating every figure,
// and the public layers on top:
//
//   - package index — the canonical Index interface and the
//     Open/OpenExisting/New factories: one closed switch over the eight
//     structures under test;
//   - package store — a sharded concurrent KV store that hash-partitions
//     keys across FAST+FAIR trees (one pool per shard), hides per-goroutine
//     pmem.Thread handling behind Sessions, stores fixed-width uint64
//     values in-tree and variable-length byte values through a per-shard
//     persistent value log (internal/vlog), reopens crash images with
//     per-shard recovery, and drains in-flight operations on Close
//     (operations on a closed store fail with store.ErrClosed);
//   - package wire — the pmkv network protocol: length-prefixed binary
//     frames with request ids for pipelining, fixed-width and varlen
//     opcodes, fuzz-hardened decoders (normative spec in wire/PROTOCOL.md);
//   - package server — a TCP server over a store.Store, one goroutine and
//     one Session per connection, with graceful drain on Shutdown and
//     serve-side counters (run it with cmd/pmkv-server, load it with
//     cmd/pmkv-loadgen);
//   - package client — the pipelined Go client: each operation is XAsync,
//     returning a Call matched by id, or a blocking X(ctx, ...), plus a
//     Pool that picks connections round-robin.
//
// See README.md for the package layout and how to run the benchmarks,
// ARCHITECTURE.md for the layer map and the per-layer crash-consistency
// argument, and wire/PROTOCOL.md for the network protocol. The root
// package holds only this comment: cmd/benchfig regenerates the figures.
package repro
