package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame is the fixed cap on a frame body, in both directions: encoders
// refuse a larger body and decoders reject one, so it bounds both the
// decoders' allocations and every payload (a MaxPairs PutBatch or Scan fits
// with room for the header).
const MaxFrame = 1 << 20

// MaxPairs is the largest pair count a single PutBatch or Scan frame may
// carry under MaxFrame. Clients chunk larger batches across frames.
const MaxPairs = 32768

// MaxValue is the largest byte-string value one PutV request or GetV/ScanV
// response element may carry: a whole value plus headers must fit a frame.
// Both encoders and decoders enforce it, so a conforming peer can never be
// handed a value it cannot re-emit.
const MaxValue = MaxFrame - 64

// The byte-string key limits (protocol revision 3). MaxKey bounds a GetK/
// PutK/DeleteK key; MaxScanBound allows one extra byte so a ScanK cursor can
// name the immediate successor of a max-sized key (lo = lastKey + "\x00").
// MaxKValue bounds a PutK request or GetK/ScanK response value: tighter than
// MaxValue because a ScanK response entry carries its key and per-entry
// header alongside the value inside one MaxFrame body. Encoders and decoders
// enforce all three symmetrically.
const (
	MaxKey       = 1024
	MaxScanBound = MaxKey + 1
	MaxKValue    = MaxFrame - 2048
)

// Op identifies a request operation.
type Op uint8

// The protocol opcodes. Zero is deliberately invalid so an all-zero frame
// cannot decode as a request.
const (
	OpGet Op = iota + 1
	OpPut
	OpDelete
	OpPutBatch
	OpScan
	_ // 6 was the Stats frame, retired in revision 5; never reused
	// The varlen-value opcodes: values are byte strings, not u64s.
	OpGetV
	OpPutV
	OpScanV
	// The byte-string key opcodes (protocol revision 3): keys are byte
	// strings of 1..MaxKey bytes, length-prefixed before the value run.
	OpGetK
	OpPutK
	OpDeleteK
	OpScanK
	// OpTxn (protocol revision 4) commits a multi-key transaction: the
	// request carries the whole buffered write-set — fixed-width and
	// byte-string keyed puts and deletes — and the server applies it
	// atomically (all-or-nothing across crashes) or not at all. A
	// StatusOK response carries no payload.
	OpTxn
)

// The TxnOp kinds. They mirror the four write-set operations a
// transaction can buffer.
const (
	TxnPut     uint8 = 1 // fixed-width put: Key, Val
	TxnDelete  uint8 = 2 // fixed-width delete: Key
	TxnPutK    uint8 = 3 // byte-key put: KKey (1..MaxKey), VVal (<= MaxKValue)
	TxnDeleteK uint8 = 4 // byte-key delete: KKey (1..MaxKey)
)

// MaxTxnOps caps the operations one OpTxn frame may carry. Alongside the
// per-op size caps it keeps worst-case server-side work per frame
// bounded; the byte-size budget is enforced separately against MaxFrame.
const MaxTxnOps = 1024

// TxnOp is one operation of an OpTxn write-set.
type TxnOp struct {
	Kind uint8
	Key  uint64 // TxnPut, TxnDelete
	Val  uint64 // TxnPut
	KKey []byte // TxnPutK, TxnDeleteK
	VVal []byte // TxnPutK
}

var opNames = [...]string{
	OpGet: "Get", OpPut: "Put", OpDelete: "Delete", OpPutBatch: "PutBatch",
	OpScan: "Scan", OpGetV: "GetV", OpPutV: "PutV",
	OpScanV: "ScanV", OpGetK: "GetK", OpPutK: "PutK", OpDeleteK: "DeleteK",
	OpScanK: "ScanK", OpTxn: "Txn",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Status is a response status code.
type Status uint8

const (
	// StatusOK reports success; the payload is op-specific.
	StatusOK Status = iota
	// StatusNotFound reports a Get miss or a Delete of an absent key.
	StatusNotFound
	// StatusErr reports a server-side failure; the payload is a message.
	StatusErr
	// StatusClosed reports that the store behind the server is closed
	// (the server is draining); the payload is a message.
	StatusClosed
	// StatusBusy reports that the server shed the request at admission
	// (its global in-flight cap was reached); the request never executed
	// and a retry after backoff is expected to succeed. The payload is a
	// message.
	StatusBusy
	// StatusNoSpace reports that a write was refused because the store can
	// no longer guarantee value-log space (including GC headroom). Reads
	// and deletes still work; the condition clears once compaction frees
	// space. The payload is a message.
	StatusNoSpace
	// StatusTxnIncomplete reports a Txn commit that reached its durable
	// commit point but failed while applying: the transaction IS
	// committed — its redo records survive and the server's next store
	// reopen replays it to completion — but its writes may not be
	// visible yet, and the store serves reads only until then. Distinct
	// from StatusErr (refused, nothing applied) so clients never
	// misclassify a committed write-set as absent or safe to reissue.
	// Sent only in response to OpTxn (both are revision 4), so peers
	// that never send OpTxn never see it. The payload is a message.
	StatusTxnIncomplete
)

var statusNames = [...]string{
	StatusOK: "OK", StatusNotFound: "NotFound", StatusErr: "Err",
	StatusClosed: "Closed", StatusBusy: "Busy", StatusNoSpace: "NoSpace",
	StatusTxnIncomplete: "TxnIncomplete",
}

func (st Status) String() string {
	if int(st) < len(statusNames) {
		return statusNames[st]
	}
	return fmt.Sprintf("Status(%d)", uint8(st))
}

// KV is one key-value pair as carried by PutBatch and Scan frames.
type KV struct {
	Key, Val uint64
}

// VKV is one key / byte-string value pair as carried by ScanV responses.
type VKV struct {
	Key uint64
	Val []byte
}

// KKV is one byte-string key/value pair as carried by ScanK responses.
type KKV struct {
	Key, Val []byte
}

// Request is a decoded request frame. Fields beyond ID and Op are meaningful
// per opcode only (see the package comment).
type Request struct {
	ID     uint64
	Op     Op
	Key    uint64 // Get, Put, Delete, GetV, PutV
	Val    uint64 // Put
	Lo, Hi uint64 // Scan, ScanV
	Max    uint32 // Scan/ScanV/ScanK result cap; 0 = server default
	Pairs  []KV   // PutBatch
	VVal   []byte // PutV/PutK value (decoded into its own allocation)
	KKey   []byte // GetK, PutK, DeleteK byte-string key (1..MaxKey bytes)
	// ScanK bounds: nil or empty means unbounded on that side. Up to
	// MaxScanBound bytes each, so a cursor can name a max-sized key's
	// immediate successor.
	KLo, KHi []byte
	// TxnOps is an OpTxn write-set: at most MaxTxnOps operations whose
	// encoding fits one frame.
	TxnOps []TxnOp
}

// Response is a decoded response frame. Fields beyond ID, Op and Status are
// meaningful per op/status only.
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	Val    uint64 // Get hit
	Pairs  []KV   // Scan
	VVal   []byte // GetV/GetK hit
	VPairs []VKV  // ScanV (decoded Vals subslice one shared allocation)
	KPairs []KKV  // ScanK (decoded keys and values subslice one shared allocation)
	Msg    string // StatusErr/StatusClosed/StatusBusy/StatusNoSpace detail
}

// Protocol errors. Decoder errors wrap ErrMalformed so transports can treat
// any of them as fatal for the connection.
var (
	ErrMalformed   = errors.New("wire: malformed frame")
	ErrFrameTooBig = errors.New("wire: frame exceeds size limit")
	ErrTooManyKV   = errors.New("wire: too many pairs for one frame")
	// ErrFrameCorrupt reports a frame whose body failed its header CRC:
	// the bytes on the wire are damaged, framing cannot be trusted, and
	// the connection must be closed. It wraps ErrMalformed.
	ErrFrameCorrupt = fmt.Errorf("%w: frame checksum mismatch", ErrMalformed)
)

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

var be = binary.BigEndian

// reqHeader is id + op; respHeader adds the status byte.
const (
	reqHeader  = 8 + 1
	respHeader = 8 + 1 + 1
)

// FrameHdrSize is the frame header: a 4-byte body length followed by the
// 4-byte CRC-32C of the body (protocol revision 2; revision 1 had only the
// length). The checksum makes byte corruption on the wire a deterministic
// decode failure instead of a silently wrong payload.
const FrameHdrSize = 8

// ScanVPairHdrSize and ScanKPairHdrSize are the per-pair headers of a ScanV
// response (key u64 | vlen u32) and a ScanK response (klen u16 | vlen u32):
// what a server budgeting a page under MaxFrame charges each pair beside its
// key and value bytes.
const (
	ScanVPairHdrSize = 12
	ScanKPairHdrSize = 6
)

// castagnoli is the frame CRC table; CRC-32C is hardware-accelerated on
// amd64 and arm64, so the per-frame cost is a few ns.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ReadFrame reads one frame body from r, validating its length bounds and
// header CRC. scratch, if large enough, backs the header and the returned
// slice (callers recycle it across reads), so a recycled scratch makes the
// read allocation-free; the returned body is valid until the next ReadFrame
// with the same scratch. Frames longer than max are rejected before any
// body allocation; a body failing its CRC fails with ErrFrameCorrupt (the
// connection is unusable — a corrupt length would misalign every later
// frame).
func ReadFrame(r io.Reader, max uint32, scratch []byte) ([]byte, error) {
	// The header goes through scratch too: a local array would escape
	// through io.ReadFull's io.Reader and cost an allocation per frame.
	buf := scratch
	if cap(buf) < FrameHdrSize {
		buf = make([]byte, FrameHdrSize)
	}
	hdr := buf[:FrameHdrSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n, sum := be.Uint32(hdr[:4]), be.Uint32(hdr[4:]) // the body overwrites hdr
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, n, max)
	}
	if n < reqHeader {
		return nil, malformed("body of %d bytes is below the %d-byte header", n, reqHeader)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		// A partial body is a connection-level failure, not a decode
		// failure: surface the transport error.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, ErrFrameCorrupt
	}
	return buf, nil
}

// FrameBuffered reports whether br already holds one complete frame, so a
// batching reader can keep decoding without risking a blocking Read. It
// never reads from the underlying connection: with fewer than FrameHdrSize
// buffered bytes it answers false outright rather than letting Peek block.
// An oversized length prefix answers true — ReadFrame will reject it from
// the buffered bytes alone, also without blocking.
func FrameBuffered(br *bufio.Reader, max uint32) bool {
	if br.Buffered() < FrameHdrSize {
		return false
	}
	hdr, err := br.Peek(FrameHdrSize)
	if err != nil {
		return false
	}
	n := be.Uint32(hdr[:4])
	if n > max {
		return true
	}
	return br.Buffered() >= FrameHdrSize+int(n)
}

// A field is a length-limited part of a payload. A cursor also records
// in one what it found wrong: fieldNone while nothing is, and the last two
// for failures that break no limit.
type field uint8

const (
	fieldNone  field = iota
	fieldCount       // a list's entry count
	fieldKey
	fieldBound // a ScanK bound: may be empty, or name a max-sized key's successor
	fieldValue
	fieldPayload // a read ran past the payload's end
	fieldKind    // a Txn op's kind is unknown
)

var fieldNames = [...]string{fieldCount: "count", fieldKey: "key", fieldBound: "bound", fieldValue: "value"}

// limit is the one statement of the per-field caps, read by the encoder and
// the cursor alike: the length range of field f in a frame of op, and the
// error an encoder refuses a violation with (a decoder's is ErrMalformed).
func limit(op Op, f field) (lo, hi int, kind error) {
	switch {
	case f == fieldCount && op == OpTxn:
		return 0, MaxTxnOps, ErrTooManyKV
	case f == fieldCount:
		return 0, MaxPairs, ErrTooManyKV
	case f == fieldKey:
		return 1, MaxKey, ErrMalformed
	case f == fieldBound:
		return 0, MaxScanBound, ErrMalformed
	case op == OpPutK || op == OpGetK || op == OpScanK || op == OpTxn:
		// A byte-key value leaves room for its key and pair header in a frame.
		return 0, MaxKValue, ErrFrameTooBig
	}
	return 0, MaxValue, ErrFrameTooBig
}

// encoder appends one frame of op to the bytes before lenAt. Its first
// refused field sticks: the refused field or list is not written, and
// appendFrame drops the whole frame.
type encoder struct {
	op    Op
	b     []byte
	lenAt int
	err   error
}

// start begins a frame at the end of dst: it reserves the frame header and
// appends the id and opcode every body begins with.
func (e *encoder) start(dst []byte, id uint64, op Op) {
	e.op, e.lenAt = op, len(dst)
	e.b = append(be.AppendUint64(append(dst, 0, 0, 0, 0, 0, 0, 0, 0), id), byte(op))
}

func (e *encoder) refuse(kind error, format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("%w: %s %s", kind, e.op, fmt.Sprintf(format, args...))
	}
}

// appendFrame back-patches the header's length and CRC over the body. If a
// field was refused, or the body exceeds MaxFrame (the one cap every
// encoded frame obeys), it returns dst as it was instead.
func (e *encoder) appendFrame() ([]byte, error) {
	body := e.b[e.lenAt+FrameHdrSize:]
	if e.err != nil || len(body) > MaxFrame {
		e.refuse(ErrFrameTooBig, "body %d > %d bytes", len(body), MaxFrame)
		return e.b[:e.lenAt], e.err
	}
	be.PutUint32(e.b[e.lenAt:], uint32(len(body)))
	be.PutUint32(e.b[e.lenAt+4:], crc32.Checksum(body, castagnoli))
	return e.b, nil
}

// fits refuses an n outside field f's limit; the caller then leaves the
// field unwritten.
func (e *encoder) fits(f field, n int) bool {
	lo, hi, kind := limit(e.op, f)
	if n < lo || n > hi {
		e.refuse(kind, "%s %d, want %d..%d", fieldNames[f], n, lo, hi)
		return false
	}
	return true
}

// count appends a list's u32 length and returns how many entries to write:
// all n, or none if the list is over its limit.
func (e *encoder) count(n int) int {
	if e.b = be.AppendUint32(e.b, uint32(n)); !e.fits(fieldCount, n) {
		return 0
	}
	return n
}

// pairs appends a u64 pair list: a PutBatch request's or a Scan response's.
func (e *encoder) pairs(kvs []KV) {
	for i := range e.count(len(kvs)) {
		e.b = be.AppendUint64(be.AppendUint64(e.b, kvs[i].Key), kvs[i].Val)
	}
}

// key appends a length-prefixed key (klen u16 | key): a GetK, PutK,
// DeleteK or Txn DeleteK key, or a ScanK bound.
func (e *encoder) key(k []byte, f field) {
	if e.fits(f, len(k)) {
		e.b = append(be.AppendUint16(e.b, uint16(len(k))), k...)
	}
}

// tail appends a value that runs to the end of the frame, its length
// implied by the frame's: PutV's, PutK's, GetV's and GetK's.
func (e *encoder) tail(v []byte) {
	if e.fits(fieldValue, len(v)) {
		e.b = append(e.b, v...)
	}
}

// kv appends a byte-key pair (klen u16 | vlen u32 | key | val): a ScanK
// response pair or a Txn PutK.
func (e *encoder) kv(k, v []byte) {
	if e.fits(fieldKey, len(k)) && e.fits(fieldValue, len(v)) {
		e.b = be.AppendUint32(be.AppendUint16(e.b, uint16(len(k))), uint32(len(v)))
		e.b = append(append(e.b, k...), v...)
	}
}

// AppendRequest appends r as one length-prefixed frame to dst and returns
// the extended slice. A request that breaks a limit — a PutBatch above
// MaxPairs (chunk those across frames), a key or value outside its cap, a
// Txn above MaxTxnOps, a body above MaxFrame — fails with dst as it was.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	var e encoder
	e.start(dst, r.ID, r.Op)
	switch r.Op {
	case OpGet, OpDelete, OpGetV:
		e.b = be.AppendUint64(e.b, r.Key)
	case OpPut:
		e.b = be.AppendUint64(be.AppendUint64(e.b, r.Key), r.Val)
	case OpPutBatch:
		e.pairs(r.Pairs)
	case OpScan, OpScanV:
		e.b = be.AppendUint32(be.AppendUint64(be.AppendUint64(e.b, r.Lo), r.Hi), r.Max)
	case OpPutV:
		e.b = be.AppendUint64(e.b, r.Key)
		e.tail(r.VVal)
	case OpGetK, OpDeleteK:
		e.key(r.KKey, fieldKey)
	case OpPutK:
		e.key(r.KKey, fieldKey)
		e.tail(r.VVal)
	case OpScanK:
		e.key(r.KLo, fieldBound)
		e.key(r.KHi, fieldBound)
		e.b = be.AppendUint32(e.b, r.Max)
	case OpTxn:
		for i := range e.count(len(r.TxnOps)) {
			op := &r.TxnOps[i]
			e.b = append(e.b, op.Kind)
			switch op.Kind {
			case TxnPut:
				e.b = be.AppendUint64(be.AppendUint64(e.b, op.Key), op.Val)
			case TxnDelete:
				e.b = be.AppendUint64(e.b, op.Key)
			case TxnPutK:
				e.kv(op.KKey, op.VVal)
			case TxnDeleteK:
				e.key(op.KKey, fieldKey)
			default:
				e.refuse(ErrMalformed, "op %d has unknown kind %d", i, op.Kind)
			}
		}
	default:
		return dst, fmt.Errorf("wire: cannot encode unknown opcode %d", r.Op)
	}
	return e.appendFrame()
}

// cursor reads a frame's payload front to back. Its first short read or
// failed bound sticks: it records what failed and empties the cursor, so
// every later read is short too and yields zeros, and done reports it. A
// decoder therefore reads its fields unconditionally and checks once, at
// the end. Formatting the error only in done keeps the cursor at four words
// and every read free of calls.
type cursor struct {
	p   []byte
	n   uint32 // the length, count or kind that failed
	op  Op
	bad field // fieldNone until something fails
}

// sized reports whether a body holds its hdr-byte header and fits MaxFrame,
// the one cap every decoded frame obeys; badBody is the error if not.
func sized(body []byte, hdr int) bool { return len(body) >= hdr && len(body) <= MaxFrame }

func badBody(n, hdr int) error { return malformed("body %d bytes, want %d..%d", n, hdr, MaxFrame) }

func (c *cursor) fail(f field, n int) {
	if c.bad == fieldNone {
		c.bad, c.n = f, uint32(n)
	}
	c.p = nil
}

// done reports the first failure, or bytes left after the last field.
func (c *cursor) done() error {
	if c.bad == fieldNone && len(c.p) == 0 {
		return nil
	}
	return c.failure()
}

func (c *cursor) failure() error {
	switch c.bad {
	case fieldNone:
		return malformed("%s payload has %d trailing bytes", c.op, len(c.p))
	case fieldPayload:
		return malformed("%s payload ends inside a field of %d bytes", c.op, c.n)
	case fieldKind:
		return malformed("%s op has unknown kind %d", c.op, c.n)
	}
	lo, hi, _ := limit(c.op, c.bad)
	return malformed("%s %s %d, want %d..%d", c.op, fieldNames[c.bad], c.n, lo, hi)
}

func (c *cursor) take(n int) []byte {
	if n > len(c.p) {
		c.fail(fieldPayload, n)
		return nil
	}
	b := c.p[:n:n]
	c.p = c.p[n:]
	return b
}

// fixed takes an n-byte integer field, all zeros once the cursor has failed.
func (c *cursor) fixed(n int) []byte {
	if b := c.take(n); b != nil {
		return b
	}
	return zeros[:]
}

var zeros [8]byte

func (c *cursor) u8() uint8   { return c.fixed(1)[0] }
func (c *cursor) u16() int    { return int(be.Uint16(c.fixed(2))) }
func (c *cursor) u32() uint32 { return be.Uint32(c.fixed(4)) }
func (c *cursor) u64() uint64 { return be.Uint64(c.fixed(8)) }

// field takes an n-byte field if n is within f's limit.
func (c *cursor) field(f field, n int) []byte {
	if lo, hi, _ := limit(c.op, f); n < lo || n > hi {
		c.fail(f, n)
		return nil
	}
	return c.take(n)
}

// count reads a list's u32 length and, before the caller allocates, bounds
// it by its limit and by the bytes left at min bytes an entry: a declared
// count is the peer's to choose, the frame length is not.
func (c *cursor) count(min int) int {
	n := c.u32()
	if _, hi, _ := limit(c.op, fieldCount); n > uint32(hi) {
		c.fail(fieldCount, int(n))
		return 0
	}
	if int(n)*min > len(c.p) {
		c.fail(fieldPayload, int(n)*min)
		return 0
	}
	return int(n)
}

// own moves the rest of the payload into one new arena, so the byte
// fields read after it outlive the frame buffer, which transports recycle.
func (c *cursor) own() *cursor {
	c.p = append([]byte(nil), c.p...)
	return c
}

// pairs, key, tail and kv read the payload shapes the encoder's methods of
// the same names write. An empty tail or kv value reads as nil.
func (c *cursor) pairs() []KV {
	kvs := make([]KV, c.count(16))
	for i := range kvs {
		kvs[i] = KV{c.u64(), c.u64()}
	}
	return kvs
}

func (c *cursor) key(f field) []byte { return c.field(f, c.u16()) }

func (c *cursor) tail() []byte {
	if len(c.p) == 0 {
		return nil
	}
	return c.field(fieldValue, len(c.p))
}

func (c *cursor) kv() (k, v []byte) {
	kl, vl := c.u16(), int(c.u32())
	if k, v = c.field(fieldKey, kl), c.field(fieldValue, vl); vl == 0 {
		v = nil
	}
	return k, v
}

// txnOps reads a Txn write-set in one pass. The first byte-key op moves
// the rest of the payload into the one arena every later key and value
// subslices, so a fixed-width write-set costs one allocation and any other
// two.
func (c *cursor) txnOps() []TxnOp {
	ops := make([]TxnOp, c.count(4)) // the smallest op: a DeleteK of a 1-byte key
	owned := false
	for i := range ops {
		op := &ops[i]
		if op.Kind = c.u8(); !owned && (op.Kind == TxnPutK || op.Kind == TxnDeleteK) {
			c.own()
			owned = true
		}
		switch op.Kind {
		case TxnPut:
			op.Key, op.Val = c.u64(), c.u64()
		case TxnDelete:
			op.Key = c.u64()
		case TxnPutK:
			op.KKey, op.VVal = c.kv()
		case TxnDeleteK:
			op.KKey = c.key(fieldKey)
		default:
			c.fail(fieldKind, int(op.Kind))
		}
	}
	return ops
}

// DecodeRequest parses one request frame body (the bytes after the frame
// header). It never panics on arbitrary input and rejects trailing bytes.
func DecodeRequest(body []byte) (Request, error) {
	var r Request
	if !sized(body, reqHeader) {
		return r, badBody(len(body), reqHeader)
	}
	r.ID, r.Op = be.Uint64(body), Op(body[8])
	c := cursor{p: body[reqHeader:], op: r.Op}
	switch r.Op {
	case OpGet, OpDelete, OpGetV:
		r.Key = c.u64()
	case OpPut:
		r.Key, r.Val = c.u64(), c.u64()
	case OpPutBatch:
		r.Pairs = c.pairs()
	case OpScan, OpScanV:
		r.Lo, r.Hi, r.Max = c.u64(), c.u64(), c.u32()
	case OpPutV:
		r.Key = c.u64()
		r.VVal = c.own().tail()
	case OpGetK, OpDeleteK:
		r.KKey = c.own().key(fieldKey)
	case OpPutK:
		r.KKey = c.own().key(fieldKey)
		r.VVal = c.tail()
	case OpScanK:
		lo, hi := c.key(fieldBound), c.key(fieldBound)
		r.Max = c.u32()
		// One arena for both bounds; an empty bound stays nil (unbounded).
		arena := append(append(make([]byte, 0, len(lo)+len(hi)), lo...), hi...)
		if len(lo) > 0 {
			r.KLo = arena[:len(lo):len(lo)]
		}
		if len(hi) > 0 {
			r.KHi = arena[len(lo):]
		}
	case OpTxn:
		r.TxnOps = c.txnOps()
	default:
		return r, malformed("unknown opcode %d", uint8(r.Op))
	}
	err := c.done() // before the return copies r: a call there would copy it twice
	return r, err
}

// AppendResponse appends r as one length-prefixed frame to dst and returns
// the extended slice. A response that breaks a limit — a Scan, ScanV or
// ScanK page above MaxPairs, a key or value outside its cap, a body above
// MaxFrame — fails with dst as it was; servers page results below all three.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	var e encoder
	e.start(dst, r.ID, r.Op)
	e.b = append(e.b, byte(r.Status))
	switch r.Status {
	case StatusErr, StatusClosed, StatusBusy, StatusNoSpace, StatusTxnIncomplete:
		e.b = append(e.b, r.Msg...)
	case StatusOK:
		switch r.Op {
		case OpGet:
			e.b = be.AppendUint64(e.b, r.Val)
		case OpPut, OpDelete, OpPutBatch, OpPutV, OpPutK, OpDeleteK, OpTxn:
		case OpScan:
			e.pairs(r.Pairs)
		case OpGetV, OpGetK:
			e.tail(r.VVal)
		case OpScanV:
			for _, p := range r.VPairs[:e.count(len(r.VPairs))] {
				if e.fits(fieldValue, len(p.Val)) {
					e.b = be.AppendUint32(be.AppendUint64(e.b, p.Key), uint32(len(p.Val)))
					e.b = append(e.b, p.Val...)
				}
			}
		case OpScanK:
			for _, p := range r.KPairs[:e.count(len(r.KPairs))] {
				e.kv(p.Key, p.Val)
			}
		default:
			return dst, fmt.Errorf("wire: cannot encode unknown opcode %d", r.Op)
		}
	}
	// NotFound and any forward-compatible status carry no payload.
	return e.appendFrame()
}

// MustAppendResponse appends r to dst like AppendResponse, but converts an
// encode failure (a server bug: an over-long scan, an oversized value) into
// a StatusErr frame carrying the failure message, so a response-coalescing
// writer always gets a frame for every request it owes. It panics only if
// even the error frame cannot be encoded, which would mean the codec itself
// is broken.
func MustAppendResponse(dst []byte, r *Response) []byte {
	out, err := AppendResponse(dst, r)
	if err == nil {
		return out
	}
	out, err2 := AppendResponse(dst, &Response{
		ID: r.ID, Op: r.Op, Status: StatusErr, Msg: err.Error(),
	})
	if err2 != nil {
		panic(fmt.Sprintf("wire: error frame unencodable: %v (after %v)", err2, err))
	}
	return out
}

// DecodeResponse parses one response frame body. Like DecodeRequest it never
// panics and rejects trailing bytes.
func DecodeResponse(body []byte) (Response, error) {
	var r Response
	if !sized(body, respHeader) {
		return r, badBody(len(body), respHeader)
	}
	r.ID, r.Op, r.Status = be.Uint64(body), Op(body[8]), Status(body[9])
	c := cursor{p: body[respHeader:], op: r.Op}
	switch r.Status {
	case StatusErr, StatusClosed, StatusBusy, StatusNoSpace, StatusTxnIncomplete:
		r.Msg = string(c.p)
		return r, nil
	case StatusNotFound: // no payload
	case StatusOK:
		switch r.Op {
		case OpGet:
			r.Val = c.u64()
		case OpPut, OpDelete, OpPutBatch, OpPutV, OpPutK, OpDeleteK, OpTxn:
		case OpScan:
			r.Pairs = c.pairs()
		case OpGetV, OpGetK:
			r.VVal = c.own().tail()
		case OpScanV:
			// The pairs and one arena for every value: two allocations.
			pairs := make([]VKV, c.count(ScanVPairHdrSize))
			c.own()
			for i := range pairs {
				pairs[i].Key = c.u64()
				pairs[i].Val = c.field(fieldValue, int(c.u32()))
			}
			r.VPairs = pairs
		case OpScanK:
			pairs := make([]KKV, c.count(ScanKPairHdrSize+1))
			c.own()
			for i := range pairs {
				pairs[i].Key, pairs[i].Val = c.kv()
			}
			r.KPairs = pairs
		default:
			return r, malformed("unknown opcode %d", uint8(r.Op))
		}
	default:
		return r, malformed("unknown status %d", uint8(r.Status))
	}
	err := c.done() // before the return copies r: a call there would copy it twice
	return r, err
}
