package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame is the fixed cap on a frame body. It bounds both the decoder's
// allocations and a PutBatch/Scan payload (65536 pairs fit with room for the
// header).
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
	OpStats
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
	OpScan: "Scan", OpStats: "Stats", OpGetV: "GetV", OpPutV: "PutV",
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

// Stats is the counter snapshot a StatusOK Stats response carries. The
// Vlog* fields surface the store's value-log space accounting (varlen
// values live behind a log the server compacts; see the store package).
type Stats struct {
	Ops           uint64 // requests served
	Errors        uint64 // requests answered with an error status (StatusErr, StatusClosed, StatusNoSpace, StatusTxnIncomplete), protocol errors included
	BytesIn       uint64 // request bytes read, including frame headers
	BytesOut      uint64 // response bytes written, including frame headers
	ConnsLive     uint64 // currently open connections
	ConnsTotal    uint64 // connections accepted since start
	VlogLive      uint64 // value-log payload bytes the store still references
	VlogGarbage   uint64 // value-log payload bytes awaiting GC
	VlogReclaimed uint64 // arena bytes value-log GC has returned to the pools

	// Per-op-class server-side latency summaries, in nanoseconds, measured
	// over the whole request lifetime (queue wait + execute). Classes:
	// read = Get/GetV/GetK/Stats, write = Put/PutV/PutK/Delete/DeleteK/
	// PutBatch/Txn, scan = Scan/ScanV/ScanK. Zero when the class has served
	// no requests.
	ReadP50  uint64
	ReadP99  uint64
	WriteP50 uint64
	WriteP99 uint64
	ScanP50  uint64
	ScanP99  uint64

	// Overload and failure counters (protocol revision 2).
	Shed       uint64 // requests answered StatusBusy by the admission cap
	IdleCloses uint64 // connections closed by the server's read idle timeout
	Resets     uint64 // connections torn down on transport or protocol errors
}

// words lists the counters in the order a Stats response carries them: the
// one list both AppendResponse and DecodeResponse walk.
func (s *Stats) words() [statsWords]*uint64 {
	return [statsWords]*uint64{
		&s.Ops, &s.Errors, &s.BytesIn, &s.BytesOut, &s.ConnsLive, &s.ConnsTotal,
		&s.VlogLive, &s.VlogGarbage, &s.VlogReclaimed,
		&s.ReadP50, &s.ReadP99, &s.WriteP50, &s.WriteP99, &s.ScanP50, &s.ScanP99,
		&s.Shed, &s.IdleCloses, &s.Resets,
	}
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
	Stats  *Stats // StatusOK Stats only; a nil one encodes as zeros
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
	statsWords = 18
)

// FrameHdrSize is the frame header: a 4-byte body length followed by the
// 4-byte CRC-32C of the body (protocol revision 2; revision 1 had only the
// length). The checksum makes byte corruption on the wire a deterministic
// decode failure instead of a silently wrong payload.
const FrameHdrSize = 8

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

// appendFrame completes a frame started by reserving FrameHdrSize header
// bytes at lenAt: it back-patches the length and CRC over everything
// appended since.
func appendFrame(dst []byte, lenAt int) []byte {
	body := dst[lenAt+FrameHdrSize:]
	be.PutUint32(dst[lenAt:], uint32(len(body)))
	be.PutUint32(dst[lenAt+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// AppendRequest appends r as one length-prefixed frame to dst and returns
// the extended slice. Each field is checked where it is encoded; a request
// that breaks a limit — a PutBatch above MaxPairs (chunk those across
// frames), a value or key above its cap, a Txn above MaxTxnOps or MaxFrame —
// fails with dst as it was.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = be.AppendUint64(dst, r.ID)
	dst = append(dst, byte(r.Op))
	switch r.Op {
	case OpGet, OpDelete, OpGetV:
		dst = be.AppendUint64(dst, r.Key)
	case OpPut:
		dst = be.AppendUint64(dst, r.Key)
		dst = be.AppendUint64(dst, r.Val)
	case OpPutBatch:
		if len(r.Pairs) > MaxPairs {
			return dst[:lenAt], fmt.Errorf("%w: %d > %d", ErrTooManyKV, len(r.Pairs), MaxPairs)
		}
		dst = be.AppendUint32(dst, uint32(len(r.Pairs)))
		for _, kv := range r.Pairs {
			dst = be.AppendUint64(dst, kv.Key)
			dst = be.AppendUint64(dst, kv.Val)
		}
	case OpScan, OpScanV:
		dst = be.AppendUint64(dst, r.Lo)
		dst = be.AppendUint64(dst, r.Hi)
		dst = be.AppendUint32(dst, r.Max)
	case OpStats:
	case OpPutV:
		// The value runs to the end of the frame: its length is implied
		// by the frame length, like an error message's.
		if len(r.VVal) > MaxValue {
			return dst[:lenAt], fmt.Errorf("%w: PutV value %d > %d bytes", ErrFrameTooBig, len(r.VVal), MaxValue)
		}
		dst = be.AppendUint64(dst, r.Key)
		dst = append(dst, r.VVal...)
	case OpGetK, OpPutK, OpDeleteK:
		// Length-prefixed key; a PutK's value runs to the end of the frame.
		if len(r.KKey) < 1 || len(r.KKey) > MaxKey {
			return dst[:lenAt], fmt.Errorf("%w: %s key %d bytes, want 1..%d", ErrMalformed, r.Op, len(r.KKey), MaxKey)
		}
		dst = be.AppendUint16(dst, uint16(len(r.KKey)))
		dst = append(dst, r.KKey...)
		if r.Op == OpPutK {
			if len(r.VVal) > MaxKValue {
				return dst[:lenAt], fmt.Errorf("%w: PutK value %d > %d bytes", ErrFrameTooBig, len(r.VVal), MaxKValue)
			}
			dst = append(dst, r.VVal...)
		}
	case OpScanK:
		if len(r.KLo) > MaxScanBound || len(r.KHi) > MaxScanBound {
			return dst[:lenAt], fmt.Errorf("%w: ScanK bound exceeds %d bytes", ErrMalformed, MaxScanBound)
		}
		dst = be.AppendUint16(dst, uint16(len(r.KLo)))
		dst = append(dst, r.KLo...)
		dst = be.AppendUint16(dst, uint16(len(r.KHi)))
		dst = append(dst, r.KHi...)
		dst = be.AppendUint32(dst, r.Max)
	case OpTxn:
		if len(r.TxnOps) > MaxTxnOps {
			return dst[:lenAt], fmt.Errorf("%w: %d txn ops > %d", ErrTooManyKV, len(r.TxnOps), MaxTxnOps)
		}
		dst = be.AppendUint32(dst, uint32(len(r.TxnOps)))
		for i := range r.TxnOps {
			op := &r.TxnOps[i]
			if (op.Kind == TxnPutK || op.Kind == TxnDeleteK) && (len(op.KKey) < 1 || len(op.KKey) > MaxKey) {
				return dst[:lenAt], fmt.Errorf("%w: txn op %d key %d bytes, want 1..%d", ErrMalformed, i, len(op.KKey), MaxKey)
			}
			dst = append(dst, op.Kind)
			switch op.Kind {
			case TxnPut:
				dst = be.AppendUint64(dst, op.Key)
				dst = be.AppendUint64(dst, op.Val)
			case TxnDelete:
				dst = be.AppendUint64(dst, op.Key)
			case TxnPutK:
				if len(op.VVal) > MaxKValue {
					return dst[:lenAt], fmt.Errorf("%w: txn op %d value %d > %d bytes", ErrFrameTooBig, i, len(op.VVal), MaxKValue)
				}
				dst = be.AppendUint16(dst, uint16(len(op.KKey)))
				dst = be.AppendUint32(dst, uint32(len(op.VVal)))
				dst = append(dst, op.KKey...)
				dst = append(dst, op.VVal...)
			case TxnDeleteK:
				dst = be.AppendUint16(dst, uint16(len(op.KKey)))
				dst = append(dst, op.KKey...)
			default:
				return dst[:lenAt], fmt.Errorf("%w: txn op %d has unknown kind %d", ErrMalformed, i, op.Kind)
			}
		}
		if body := len(dst) - lenAt - FrameHdrSize; body > MaxFrame {
			return dst[:lenAt], fmt.Errorf("%w: txn frame %d > %d bytes", ErrFrameTooBig, body, MaxFrame)
		}
	default:
		return dst[:lenAt], fmt.Errorf("wire: cannot encode unknown opcode %d", r.Op)
	}
	return appendFrame(dst, lenAt), nil
}

// DecodeRequest parses one request frame body (the bytes after the length
// prefix). It never panics on arbitrary input and rejects trailing bytes.
func DecodeRequest(body []byte) (Request, error) {
	var r Request
	if len(body) < reqHeader {
		return r, malformed("request body %d bytes, want >= %d", len(body), reqHeader)
	}
	r.ID = be.Uint64(body)
	r.Op = Op(body[8])
	p := body[reqHeader:]
	switch r.Op {
	case OpGet, OpDelete:
		if len(p) != 8 {
			return r, malformed("%s payload %d bytes, want 8", r.Op, len(p))
		}
		r.Key = be.Uint64(p)
	case OpPut:
		if len(p) != 16 {
			return r, malformed("Put payload %d bytes, want 16", len(p))
		}
		r.Key = be.Uint64(p)
		r.Val = be.Uint64(p[8:])
	case OpPutBatch:
		if len(p) < 4 {
			return r, malformed("PutBatch payload %d bytes, want >= 4", len(p))
		}
		n := be.Uint32(p)
		p = p[4:]
		// Length check before allocation: n is attacker-controlled, the
		// actual bytes present are not.
		if uint64(len(p)) != uint64(n)*16 {
			return r, malformed("PutBatch count %d disagrees with %d payload bytes", n, len(p))
		}
		if n > MaxPairs {
			return r, malformed("PutBatch count %d exceeds MaxPairs %d", n, MaxPairs)
		}
		pairs := make([]KV, n)
		for i := range pairs {
			pairs[i].Key = be.Uint64(p[i*16:])
			pairs[i].Val = be.Uint64(p[i*16+8:])
		}
		r.Pairs = pairs
	case OpScan, OpScanV:
		if len(p) != 20 {
			return r, malformed("%s payload %d bytes, want 20", r.Op, len(p))
		}
		r.Lo = be.Uint64(p)
		r.Hi = be.Uint64(p[8:])
		r.Max = be.Uint32(p[16:])
	case OpStats:
		if len(p) != 0 {
			return r, malformed("Stats payload %d bytes, want 0", len(p))
		}
	case OpGetV:
		if len(p) != 8 {
			return r, malformed("GetV payload %d bytes, want 8", len(p))
		}
		r.Key = be.Uint64(p)
	case OpPutV:
		if len(p) < 8 {
			return r, malformed("PutV payload %d bytes, want >= 8", len(p))
		}
		if len(p)-8 > MaxValue {
			return r, malformed("PutV value %d bytes exceeds MaxValue %d", len(p)-8, MaxValue)
		}
		r.Key = be.Uint64(p)
		// Copied, not aliased: frame buffers are recycled by transports,
		// but requests outlive the read loop's scratch.
		r.VVal = append([]byte(nil), p[8:]...)
	case OpGetK, OpDeleteK:
		if len(p) < 2 {
			return r, malformed("%s payload %d bytes, want >= 2", r.Op, len(p))
		}
		kl := int(be.Uint16(p))
		if kl < 1 || kl > MaxKey {
			return r, malformed("%s key %d bytes, want 1..%d", r.Op, kl, MaxKey)
		}
		if len(p)-2 != kl {
			return r, malformed("%s key claims %d bytes, %d present", r.Op, kl, len(p)-2)
		}
		r.KKey = append([]byte(nil), p[2:]...)
	case OpPutK:
		if len(p) < 2 {
			return r, malformed("PutK payload %d bytes, want >= 2", len(p))
		}
		kl := int(be.Uint16(p))
		if kl < 1 || kl > MaxKey {
			return r, malformed("PutK key %d bytes, want 1..%d", kl, MaxKey)
		}
		if len(p)-2 < kl {
			return r, malformed("PutK key claims %d bytes, %d present", kl, len(p)-2)
		}
		if len(p)-2-kl > MaxKValue {
			return r, malformed("PutK value %d bytes exceeds MaxKValue %d", len(p)-2-kl, MaxKValue)
		}
		// One arena for key and value; both outlive the frame scratch.
		arena := append([]byte(nil), p[2:]...)
		r.KKey = arena[:kl:kl]
		if len(arena) > kl {
			r.VVal = arena[kl:]
		}
	case OpScanK:
		if len(p) < 2 {
			return r, malformed("ScanK payload %d bytes, want >= 2", len(p))
		}
		lol := int(be.Uint16(p))
		if lol > MaxScanBound || len(p)-2 < lol {
			return r, malformed("ScanK lo bound %d bytes invalid (%d left)", lol, len(p)-2)
		}
		q := p[2+lol:]
		if len(q) < 2 {
			return r, malformed("ScanK hi bound truncated")
		}
		hil := int(be.Uint16(q))
		if hil > MaxScanBound || len(q)-2 != hil+4 {
			return r, malformed("ScanK hi bound %d bytes disagrees with %d payload bytes", hil, len(q)-2)
		}
		if lol+hil > 0 {
			arena := make([]byte, 0, lol+hil)
			arena = append(arena, p[2:2+lol]...)
			arena = append(arena, q[2:2+hil]...)
			if lol > 0 {
				r.KLo = arena[:lol:lol]
			}
			if hil > 0 {
				r.KHi = arena[lol:]
			}
		}
		r.Max = be.Uint32(q[2+hil:])
	case OpTxn:
		if len(p) < 4 {
			return r, malformed("Txn payload %d bytes, want >= 4", len(p))
		}
		// Mirror the encoder's frame budget so the accepted language stays
		// exactly the encodable one even when bodies bypass ReadFrame.
		if len(body) > MaxFrame {
			return r, malformed("Txn body %d bytes exceeds MaxFrame %d", len(body), MaxFrame)
		}
		n := be.Uint32(p)
		p = p[4:]
		if n > MaxTxnOps {
			return r, malformed("Txn count %d exceeds MaxTxnOps %d", n, MaxTxnOps)
		}
		// Two passes, like ScanK: validate every op against the bytes
		// actually present before allocating, then slice one shared arena
		// for all byte keys and values.
		total, q := 0, p
		for i := uint32(0); i < n; i++ {
			if len(q) < 1 {
				return r, malformed("Txn op %d truncated", i)
			}
			kind := q[0]
			q = q[1:]
			switch kind {
			case TxnPut:
				if len(q) < 16 {
					return r, malformed("Txn put op %d truncated", i)
				}
				q = q[16:]
			case TxnDelete:
				if len(q) < 8 {
					return r, malformed("Txn delete op %d truncated", i)
				}
				q = q[8:]
			case TxnPutK:
				if len(q) < 6 {
					return r, malformed("Txn put-k op %d truncated", i)
				}
				kl := int(be.Uint16(q))
				vl := int(be.Uint32(q[2:]))
				if kl < 1 || kl > MaxKey {
					return r, malformed("Txn op %d key %d bytes, want 1..%d", i, kl, MaxKey)
				}
				if vl > MaxKValue {
					return r, malformed("Txn op %d value %d bytes exceeds MaxKValue %d", i, vl, MaxKValue)
				}
				if len(q)-6 < kl+vl {
					return r, malformed("Txn op %d claims %d bytes, %d left", i, kl+vl, len(q)-6)
				}
				total += kl + vl
				q = q[6+kl+vl:]
			case TxnDeleteK:
				if len(q) < 2 {
					return r, malformed("Txn delete-k op %d truncated", i)
				}
				kl := int(be.Uint16(q))
				if kl < 1 || kl > MaxKey {
					return r, malformed("Txn op %d key %d bytes, want 1..%d", i, kl, MaxKey)
				}
				if len(q)-2 < kl {
					return r, malformed("Txn op %d claims %d key bytes, %d left", i, kl, len(q)-2)
				}
				total += kl
				q = q[2+kl:]
			default:
				return r, malformed("Txn op %d has unknown kind %d", i, kind)
			}
		}
		if len(q) != 0 {
			return r, malformed("Txn payload has %d trailing bytes", len(q))
		}
		arena := make([]byte, 0, total)
		ops := make([]TxnOp, n)
		for i := range ops {
			kind := p[0]
			p = p[1:]
			ops[i].Kind = kind
			switch kind {
			case TxnPut:
				ops[i].Key = be.Uint64(p)
				ops[i].Val = be.Uint64(p[8:])
				p = p[16:]
			case TxnDelete:
				ops[i].Key = be.Uint64(p)
				p = p[8:]
			case TxnPutK:
				kl := int(be.Uint16(p))
				vl := int(be.Uint32(p[2:]))
				start := len(arena)
				arena = append(arena, p[6:6+kl+vl]...)
				ops[i].KKey = arena[start : start+kl : start+kl]
				if vl > 0 {
					ops[i].VVal = arena[start+kl : len(arena) : len(arena)]
				}
				p = p[6+kl+vl:]
			case TxnDeleteK:
				kl := int(be.Uint16(p))
				start := len(arena)
				arena = append(arena, p[2:2+kl]...)
				ops[i].KKey = arena[start:len(arena):len(arena)]
				p = p[2+kl:]
			}
		}
		r.TxnOps = ops
	default:
		return r, malformed("unknown opcode %d", uint8(r.Op))
	}
	return r, nil
}

// AppendResponse appends r as one length-prefixed frame to dst and returns
// the extended slice. Scan/ScanV responses exceeding MaxPairs and GetV/ScanV
// values above MaxValue fail at encode time; servers cap result sets below
// both.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if (r.Op == OpScan || r.Op == OpScanV || r.Op == OpScanK) && r.Status == StatusOK &&
		max(len(r.Pairs), max(len(r.VPairs), len(r.KPairs))) > MaxPairs {
		return dst, fmt.Errorf("%w: %d > %d", ErrTooManyKV,
			max(len(r.Pairs), max(len(r.VPairs), len(r.KPairs))), MaxPairs)
	}
	if r.Op == OpGetV && r.Status == StatusOK && len(r.VVal) > MaxValue {
		return dst, fmt.Errorf("%w: GetV value %d > %d bytes", ErrFrameTooBig, len(r.VVal), MaxValue)
	}
	if r.Op == OpGetK && r.Status == StatusOK && len(r.VVal) > MaxKValue {
		return dst, fmt.Errorf("%w: GetK value %d > %d bytes", ErrFrameTooBig, len(r.VVal), MaxKValue)
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = be.AppendUint64(dst, r.ID)
	dst = append(dst, byte(r.Op), byte(r.Status))
	switch {
	case r.Status == StatusErr || r.Status == StatusClosed ||
		r.Status == StatusBusy || r.Status == StatusNoSpace ||
		r.Status == StatusTxnIncomplete:
		dst = append(dst, r.Msg...)
	case r.Status != StatusOK:
		// NotFound and any forward-compatible status carry no payload.
	default:
		switch r.Op {
		case OpGet:
			dst = be.AppendUint64(dst, r.Val)
		case OpScan:
			dst = be.AppendUint32(dst, uint32(len(r.Pairs)))
			for _, kv := range r.Pairs {
				dst = be.AppendUint64(dst, kv.Key)
				dst = be.AppendUint64(dst, kv.Val)
			}
		case OpStats:
			var st Stats
			if r.Stats != nil {
				st = *r.Stats
			}
			for _, w := range st.words() {
				dst = be.AppendUint64(dst, *w)
			}
		case OpGetV:
			dst = append(dst, r.VVal...)
		case OpScanV:
			dst = be.AppendUint32(dst, uint32(len(r.VPairs)))
			for i := range r.VPairs {
				if len(r.VPairs[i].Val) > MaxValue {
					return dst[:lenAt], fmt.Errorf("%w: ScanV value %d > %d bytes",
						ErrFrameTooBig, len(r.VPairs[i].Val), MaxValue)
				}
				dst = be.AppendUint64(dst, r.VPairs[i].Key)
				dst = be.AppendUint32(dst, uint32(len(r.VPairs[i].Val)))
				dst = append(dst, r.VPairs[i].Val...)
			}
		case OpGetK:
			dst = append(dst, r.VVal...)
		case OpScanK:
			dst = be.AppendUint32(dst, uint32(len(r.KPairs)))
			for i := range r.KPairs {
				kl, vl := len(r.KPairs[i].Key), len(r.KPairs[i].Val)
				if kl < 1 || kl > MaxKey {
					return dst[:lenAt], fmt.Errorf("%w: ScanK key %d bytes, want 1..%d",
						ErrMalformed, kl, MaxKey)
				}
				if vl > MaxKValue {
					return dst[:lenAt], fmt.Errorf("%w: ScanK value %d > %d bytes",
						ErrFrameTooBig, vl, MaxKValue)
				}
				dst = be.AppendUint16(dst, uint16(kl))
				dst = be.AppendUint32(dst, uint32(vl))
				dst = append(dst, r.KPairs[i].Key...)
				dst = append(dst, r.KPairs[i].Val...)
			}
		case OpPut, OpDelete, OpPutBatch, OpPutV, OpPutK, OpDeleteK, OpTxn:
		default:
			return dst[:lenAt], fmt.Errorf("wire: cannot encode unknown opcode %d", r.Op)
		}
	}
	return appendFrame(dst, lenAt), nil
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
	if len(body) < respHeader {
		return r, malformed("response body %d bytes, want >= %d", len(body), respHeader)
	}
	r.ID = be.Uint64(body)
	r.Op = Op(body[8])
	r.Status = Status(body[9])
	p := body[respHeader:]
	switch r.Status {
	case StatusErr, StatusClosed, StatusBusy, StatusNoSpace, StatusTxnIncomplete:
		r.Msg = string(p)
		return r, nil
	case StatusNotFound:
		if len(p) != 0 {
			return r, malformed("NotFound payload %d bytes, want 0", len(p))
		}
		return r, nil
	case StatusOK:
	default:
		return r, malformed("unknown status %d", uint8(r.Status))
	}
	switch r.Op {
	case OpGet:
		if len(p) != 8 {
			return r, malformed("Get response payload %d bytes, want 8", len(p))
		}
		r.Val = be.Uint64(p)
	case OpPut, OpDelete, OpPutBatch:
		if len(p) != 0 {
			return r, malformed("%s response payload %d bytes, want 0", r.Op, len(p))
		}
	case OpScan:
		if len(p) < 4 {
			return r, malformed("Scan response payload %d bytes, want >= 4", len(p))
		}
		n := be.Uint32(p)
		p = p[4:]
		if uint64(len(p)) != uint64(n)*16 {
			return r, malformed("Scan count %d disagrees with %d payload bytes", n, len(p))
		}
		if n > MaxPairs {
			return r, malformed("Scan count %d exceeds MaxPairs %d", n, MaxPairs)
		}
		pairs := make([]KV, n)
		for i := range pairs {
			pairs[i].Key = be.Uint64(p[i*16:])
			pairs[i].Val = be.Uint64(p[i*16+8:])
		}
		r.Pairs = pairs
	case OpGetV:
		if len(p) > MaxValue {
			return r, malformed("GetV value %d bytes exceeds MaxValue %d", len(p), MaxValue)
		}
		r.VVal = append([]byte(nil), p...)
	case OpPutV, OpPutK, OpDeleteK, OpTxn:
		if len(p) != 0 {
			return r, malformed("%s response payload %d bytes, want 0", r.Op, len(p))
		}
	case OpScanV:
		if len(p) < 4 {
			return r, malformed("ScanV response payload %d bytes, want >= 4", len(p))
		}
		n := be.Uint32(p)
		p = p[4:]
		if n > MaxPairs {
			return r, malformed("ScanV count %d exceeds MaxPairs %d", n, MaxPairs)
		}
		// Two passes: validate the pair lengths against the actual bytes
		// present before allocating anything, then slice one shared arena
		// so a count-n response costs exactly two allocations.
		total, q := 0, p
		for i := uint32(0); i < n; i++ {
			if len(q) < 12 {
				return r, malformed("ScanV pair %d truncated", i)
			}
			vlen := int(be.Uint32(q[8:]))
			if vlen > MaxValue {
				return r, malformed("ScanV value %d bytes exceeds MaxValue %d", vlen, MaxValue)
			}
			if len(q)-12 < vlen {
				return r, malformed("ScanV pair %d claims %d value bytes, %d left", i, vlen, len(q)-12)
			}
			total += vlen
			q = q[12+vlen:]
		}
		if len(q) != 0 {
			return r, malformed("ScanV response has %d trailing bytes", len(q))
		}
		arena := make([]byte, 0, total)
		pairs := make([]VKV, n)
		for i := range pairs {
			vlen := int(be.Uint32(p[8:]))
			pairs[i].Key = be.Uint64(p)
			start := len(arena)
			arena = append(arena, p[12:12+vlen]...)
			pairs[i].Val = arena[start:len(arena):len(arena)]
			p = p[12+vlen:]
		}
		r.VPairs = pairs
	case OpGetK:
		if len(p) > MaxKValue {
			return r, malformed("GetK value %d bytes exceeds MaxKValue %d", len(p), MaxKValue)
		}
		r.VVal = append([]byte(nil), p...)
	case OpScanK:
		if len(p) < 4 {
			return r, malformed("ScanK response payload %d bytes, want >= 4", len(p))
		}
		n := be.Uint32(p)
		p = p[4:]
		if n > MaxPairs {
			return r, malformed("ScanK count %d exceeds MaxPairs %d", n, MaxPairs)
		}
		// Same two-pass discipline as ScanV: validate every entry against
		// the bytes actually present, then slice one shared arena holding
		// keys and values — two allocations for a count-n response.
		total, q := 0, p
		for i := uint32(0); i < n; i++ {
			if len(q) < 6 {
				return r, malformed("ScanK pair %d truncated", i)
			}
			kl := int(be.Uint16(q))
			vl := int(be.Uint32(q[2:]))
			if kl < 1 || kl > MaxKey {
				return r, malformed("ScanK key %d bytes, want 1..%d", kl, MaxKey)
			}
			if vl > MaxKValue {
				return r, malformed("ScanK value %d bytes exceeds MaxKValue %d", vl, MaxKValue)
			}
			if len(q)-6 < kl+vl {
				return r, malformed("ScanK pair %d claims %d bytes, %d left", i, kl+vl, len(q)-6)
			}
			total += kl + vl
			q = q[6+kl+vl:]
		}
		if len(q) != 0 {
			return r, malformed("ScanK response has %d trailing bytes", len(q))
		}
		arena := make([]byte, 0, total)
		pairs := make([]KKV, n)
		for i := range pairs {
			kl := int(be.Uint16(p))
			vl := int(be.Uint32(p[2:]))
			start := len(arena)
			arena = append(arena, p[6:6+kl+vl]...)
			pairs[i].Key = arena[start : start+kl : start+kl]
			if vl > 0 {
				pairs[i].Val = arena[start+kl : len(arena) : len(arena)]
			}
			p = p[6+kl+vl:]
		}
		r.KPairs = pairs
	case OpStats:
		if len(p) != statsWords*8 {
			return r, malformed("Stats response payload %d bytes, want %d", len(p), statsWords*8)
		}
		st := new(Stats)
		for i, w := range st.words() {
			*w = be.Uint64(p[8*i:])
		}
		r.Stats = st
	default:
		return r, malformed("unknown opcode %d", uint8(r.Op))
	}
	return r, nil
}
