// Package wire defines the pmkv network protocol: a compact length-prefixed
// binary framing shared by package server and package client.
//
// The normative protocol specification — frame layout, the full opcode and
// status tables (including the varlen-value ops GetV/PutV/ScanV), size
// limits, pipelining rules, and versioning/compatibility notes — lives in
// PROTOCOL.md next to this file. This package is its reference
// implementation; where prose and code disagree, PROTOCOL.md wins and the
// code has a bug.
//
// In one breath: every message is a frame of `len u32 | body`, request
// bodies are `id u64 | op u8 | payload`, response bodies are
// `id u64 | op u8 | status u8 | payload`, all integers big-endian. The
// client-chosen id, echoed verbatim by the server, is what lets one
// connection carry many in-flight requests with responses matched back out
// of order.
//
// Each payload shape has one encoder and one decoder, shared by every
// opcode that carries it: the u64 pair list (PutBatch, Scan), the byte-key
// pair (ScanK pairs, Txn PutK), the length-prefixed key (GetK, PutK,
// DeleteK, Txn DeleteK, the ScanK bounds) and the value that runs to the
// end of the frame (PutV, PutK, GetV, GetK). Both sides read every size cap
// from one table, and MaxFrame caps every body in both directions.
//
// Decoders read a payload through one bounds-checked cursor whose first
// short read or failed bound sticks, so a decoder reads its fields
// unconditionally and checks once, together with the trailing-byte check;
// a list's declared count is checked against the bytes left before
// anything is allocated for it. They never panic, allocate in proportion
// to the frame they were handed, and each makes a single pass (see
// FuzzDecodeRequest/FuzzDecodeResponse and TestDecodeCountsBoundedByPayload).
// Encoders append into caller-supplied buffers and allocate nothing when
// the buffer has capacity (see the alloc_test.go contracts); a refused
// field leaves the buffer as it was.
package wire
