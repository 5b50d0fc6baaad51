package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func requestCases() []Request {
	return []Request{
		{ID: 1, Op: OpGet, Key: 42},
		{ID: 2, Op: OpPut, Key: 42, Val: ^uint64(0)},
		{ID: 3, Op: OpDelete, Key: 0},
		{ID: 4, Op: OpPutBatch, Pairs: []KV{{1, 2}, {3, 4}, {^uint64(0), 0}}},
		{ID: 5, Op: OpPutBatch, Pairs: []KV{}},
		{ID: 6, Op: OpScan, Lo: 10, Hi: 20, Max: 7},
		{ID: 7, Op: OpScan, Lo: 0, Hi: ^uint64(0), Max: 0},
		{ID: 8, Op: OpGetV, Key: 42},
		{ID: 9, Op: OpPutV, Key: 42, VVal: []byte("hello, varlen world")},
		{ID: 10, Op: OpPutV, Key: 0},
		{ID: 11, Op: OpScanV, Lo: 5, Hi: 500, Max: 32},
		// Byte-key ops (revision 3); the keys deliberately share 8-byte
		// prefixes, seeding the fuzz corpora with the collision shapes the
		// store's bucket path must resolve.
		{ID: 20, Op: OpGetK, KKey: []byte("collide-a")},
		{ID: 21, Op: OpPutK, KKey: []byte("collide-b"), VVal: []byte("bucket value")},
		{ID: 22, Op: OpPutK, KKey: []byte("collide-")},
		{ID: 23, Op: OpDeleteK, KKey: bytes.Repeat([]byte{0xff}, MaxKey)},
		{ID: 24, Op: OpDeleteK, KKey: []byte{0x00}},
		{ID: 25, Op: OpScanK, KLo: []byte("collide-"), KHi: []byte("collide-\xff"), Max: 100},
		{ID: 26, Op: OpScanK, Max: 0},
		{ID: 27, Op: OpScanK, KLo: append(bytes.Repeat([]byte{0xff}, MaxKey), 0x00), Max: 1},
		// Txn commits (revision 4): mixed write-sets, including an empty
		// byte-key value and a max-sized key.
		{ID: 30, Op: OpTxn, TxnOps: []TxnOp{
			{Kind: TxnPut, Key: 42, Val: ^uint64(0)},
			{Kind: TxnDelete, Key: 7},
			{Kind: TxnPutK, KKey: []byte("collide-a"), VVal: []byte("txn value")},
			{Kind: TxnPutK, KKey: []byte("collide-b")},
			{Kind: TxnDeleteK, KKey: bytes.Repeat([]byte{0xfe}, MaxKey)},
		}},
		{ID: 31, Op: OpTxn, TxnOps: []TxnOp{{Kind: TxnPut, Key: 1, Val: 2}}},
	}
}

// normTxnOps makes nil and empty op slices compare equal.
func normTxnOps(p []TxnOp) []TxnOp {
	if len(p) == 0 {
		return nil
	}
	return p
}

func responseCases() []Response {
	return []Response{
		{ID: 1, Op: OpGet, Status: StatusOK, Val: 99},
		{ID: 2, Op: OpGet, Status: StatusNotFound},
		{ID: 3, Op: OpPut, Status: StatusOK},
		{ID: 4, Op: OpDelete, Status: StatusNotFound},
		{ID: 5, Op: OpPutBatch, Status: StatusOK},
		{ID: 6, Op: OpScan, Status: StatusOK, Pairs: []KV{{5, 6}, {7, 8}}},
		{ID: 7, Op: OpScan, Status: StatusOK, Pairs: []KV{}},
		{ID: 9, Op: OpPut, Status: StatusErr, Msg: "shard 3: arena exhausted"},
		{ID: 10, Op: OpGet, Status: StatusClosed, Msg: "store: closed"},
		{ID: 11, Op: OpPut, Status: StatusErr, Msg: ""},
		{ID: 18, Op: OpPut, Status: StatusBusy, Msg: "server overloaded"},
		{ID: 19, Op: OpPutV, Status: StatusNoSpace, Msg: "store: value log out of space"},
		{ID: 12, Op: OpGetV, Status: StatusOK, VVal: []byte("byte-string value")},
		{ID: 13, Op: OpGetV, Status: StatusNotFound},
		{ID: 14, Op: OpPutV, Status: StatusOK},
		{ID: 15, Op: OpScanV, Status: StatusOK, VPairs: []VKV{
			{Key: 1, Val: []byte("a")},
			{Key: 2, Val: []byte("")},
			{Key: ^uint64(0), Val: bytes.Repeat([]byte{0xab}, 300)},
		}},
		{ID: 16, Op: OpScanV, Status: StatusOK, VPairs: []VKV{}},
		{ID: 17, Op: OpGetV, Status: StatusErr, Msg: "store: key does not hold a varlen value"},
		// Byte-key ops (revision 3), with prefix-colliding scan pairs.
		{ID: 20, Op: OpGetK, Status: StatusOK, VVal: []byte("byte-keyed value")},
		{ID: 21, Op: OpGetK, Status: StatusNotFound},
		{ID: 22, Op: OpPutK, Status: StatusOK},
		{ID: 23, Op: OpDeleteK, Status: StatusNotFound},
		{ID: 24, Op: OpScanK, Status: StatusOK, KPairs: []KKV{
			{Key: []byte("collide-"), Val: []byte("a")},
			{Key: []byte("collide-1")},
			{Key: bytes.Repeat([]byte{0xff}, MaxKey), Val: bytes.Repeat([]byte{0xab}, 300)},
		}},
		{ID: 25, Op: OpScanK, Status: StatusOK, KPairs: []KKV{}},
		{ID: 26, Op: OpGetK, Status: StatusErr, Msg: "store: prefix does not hold a byte-key bucket"},
		// Txn commits (revision 4).
		{ID: 30, Op: OpTxn, Status: StatusOK},
		{ID: 31, Op: OpTxn, Status: StatusErr, Msg: "store: transaction exceeds redo-log capacity"},
		{ID: 32, Op: OpTxn, Status: StatusNoSpace, Msg: "store: value log out of space"},
		{ID: 33, Op: OpTxn, Status: StatusTxnIncomplete, Msg: "store: committed transaction applied incompletely"},
		{ID: 34, Op: OpTxn, Status: StatusTxnIncomplete, Msg: ""},
	}
}

// normKPairs is normPairs for byte-key scan results.
func normKPairs(p []KKV) []KKV {
	if len(p) == 0 {
		return nil
	}
	return p
}

// normPairs makes nil and empty pair slices compare equal: the decoder is
// free to return either for a zero count.
func normPairs(p []KV) []KV {
	if len(p) == 0 {
		return nil
	}
	return p
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range requestCases() {
		frame, err := AppendRequest(nil, &want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Op, err)
		}
		body, err := ReadFrame(bytes.NewReader(frame), MaxFrame, nil)
		if err != nil {
			t.Fatalf("%v: ReadFrame: %v", want.Op, err)
		}
		got, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Op, err)
		}
		got.Pairs, want.Pairs = normPairs(got.Pairs), normPairs(want.Pairs)
		got.TxnOps, want.TxnOps = normTxnOps(got.TxnOps), normTxnOps(want.TxnOps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, want := range responseCases() {
		frame, err := AppendResponse(nil, &want)
		if err != nil {
			t.Fatalf("%v/%v: encode: %v", want.Op, want.Status, err)
		}
		body, err := ReadFrame(bytes.NewReader(frame), MaxFrame, nil)
		if err != nil {
			t.Fatalf("%v/%v: ReadFrame: %v", want.Op, want.Status, err)
		}
		got, err := DecodeResponse(body)
		if err != nil {
			t.Fatalf("%v/%v: decode: %v", want.Op, want.Status, err)
		}
		got.Pairs, want.Pairs = normPairs(got.Pairs), normPairs(want.Pairs)
		got.KPairs, want.KPairs = normKPairs(got.KPairs), normKPairs(want.KPairs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestStreamedFrames decodes several frames back to back from one reader,
// recycling the scratch buffer the way the transports do.
func TestStreamedFrames(t *testing.T) {
	var stream []byte
	var err error
	reqs := requestCases()
	for i := range reqs {
		stream, err = AppendRequest(stream, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	var scratch []byte
	for i := range reqs {
		body, err := ReadFrame(r, MaxFrame, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != reqs[i].ID || got.Op != reqs[i].Op {
			t.Fatalf("frame %d: got id=%d op=%v, want id=%d op=%v",
				i, got.ID, got.Op, reqs[i].ID, reqs[i].Op)
		}
		scratch = body[:0]
	}
	if _, err := ReadFrame(r, MaxFrame, scratch); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Oversized frame: rejected from the header alone.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(huge), MaxFrame, nil); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized: %v, want ErrFrameTooBig", err)
	}
	// Undersized body length (rejected before the CRC is consulted).
	tiny := []byte{0, 0, 0, 4, 0, 0, 0, 0, 1, 2, 3, 4}
	if _, err := ReadFrame(bytes.NewReader(tiny), MaxFrame, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("undersized: %v, want ErrMalformed", err)
	}
	// Truncated body.
	frame, err := AppendRequest(nil, &Request{ID: 1, Op: OpPut, Key: 1, Val: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3]), MaxFrame, nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated: %v, want ErrUnexpectedEOF", err)
	}
}

// TestReadFrameCatchesCorruption pins the revision-2 integrity guarantee:
// flipping any single byte of a frame — header length, header CRC, or any
// body byte — makes ReadFrame fail rather than hand back damaged bytes.
func TestReadFrameCatchesCorruption(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{ID: 7, Op: OpPut, Key: 3, Val: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x20
		// Feed the stream with trailing padding so a corrupted length that
		// claims a larger body still finds bytes to read (as it would on a
		// live connection carrying more frames) instead of hitting EOF.
		stream := append(bad, make([]byte, 64)...)
		if _, err := ReadFrame(bytes.NewReader(stream), MaxFrame, nil); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(frame))
		}
	}
	// Body corruption specifically is ErrFrameCorrupt (and ErrMalformed).
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(bad), MaxFrame, nil); !errors.Is(err, ErrFrameCorrupt) || !errors.Is(err, ErrMalformed) {
		t.Fatalf("body flip: %v, want ErrFrameCorrupt wrapping ErrMalformed", err)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"short header", make([]byte, 8)},
		{"zero opcode", make([]byte, 9)},
		{"unknown opcode", append(make([]byte, 8), 0xee)},
		{"get without key", append(make([]byte, 8), byte(OpGet))},
		{"get trailing bytes", append(make([]byte, 8), byte(OpGet), 0, 0, 0, 0, 0, 0, 0, 0, 99)},
		{"batch short count", append(make([]byte, 8), byte(OpPutBatch), 1)},
		{"batch count lies", append(append(make([]byte, 8), byte(OpPutBatch)), 0xff, 0xff, 0xff, 0xff)},
		{"retired opcode 6", append(make([]byte, 8), 6)},
		{"getv without key", append(make([]byte, 8), byte(OpGetV), 1, 2)},
		{"getv trailing bytes", append(make([]byte, 8), byte(OpGetV), 0, 0, 0, 0, 0, 0, 0, 0, 99)},
		{"putv short key", append(make([]byte, 8), byte(OpPutV), 1, 2, 3)},
		{"scanv short payload", append(make([]byte, 8), byte(OpScanV), 1, 2, 3, 4)},
		{"getk no length", append(make([]byte, 8), byte(OpGetK))},
		{"getk zero-length key", append(make([]byte, 8), byte(OpGetK), 0, 0)},
		{"getk key lies", append(make([]byte, 8), byte(OpGetK), 0, 5, 'a', 'b')},
		{"getk trailing bytes", append(make([]byte, 8), byte(OpGetK), 0, 1, 'a', 'b')},
		{"putk zero-length key", append(make([]byte, 8), byte(OpPutK), 0, 0, 'v')},
		{"putk truncated key", append(make([]byte, 8), byte(OpPutK), 0, 9, 'a')},
		{"deletek oversized klen", append(make([]byte, 8), byte(OpDeleteK), 0xff, 0xff)},
		{"scank no bounds", append(make([]byte, 8), byte(OpScanK), 0)},
		{"scank lo lies", append(make([]byte, 8), byte(OpScanK), 0, 9, 'a')},
		{"scank missing hi", append(make([]byte, 8), byte(OpScanK), 0, 1, 'a')},
		{"scank missing max", append(make([]byte, 8), byte(OpScanK), 0, 0, 0, 0)},
		{"scank trailing bytes", append(make([]byte, 8), byte(OpScanK), 0, 0, 0, 0, 0, 0, 0, 1, 9)},
		{"txn short count", append(make([]byte, 8), byte(OpTxn), 0, 0)},
		{"txn count lies", append(make([]byte, 8), byte(OpTxn), 0, 0, 0, 3)},
		{"txn unknown kind", append(make([]byte, 8), byte(OpTxn), 0, 0, 0, 1, 9)},
		{"txn put truncated", append(make([]byte, 8), byte(OpTxn), 0, 0, 0, 1, TxnPut, 1, 2)},
		{"txn putk zero-length key", append(make([]byte, 8), byte(OpTxn), 0, 0, 0, 1, TxnPutK, 0, 0, 0, 0, 0, 0)},
		{"txn putk key lies", append(make([]byte, 8), byte(OpTxn), 0, 0, 0, 1, TxnPutK, 0, 5, 0, 0, 0, 0, 'a')},
		{"txn deletek oversized klen", append(make([]byte, 8), byte(OpTxn), 0, 0, 0, 1, TxnDeleteK, 0xff, 0xff)},
		{"txn trailing bytes", append(make([]byte, 8), byte(OpTxn), 0, 0, 0, 1, TxnDelete, 0, 0, 0, 0, 0, 0, 0, 1, 9)},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.body); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, err)
		}
	}
}

// TestRetiredOpcodeIsUnknown: opcode 6, the retired Stats frame, is as
// unknown as opcode 99 to the response decoder and to both encoders
// (TestDecodeRequestRejectsGarbage covers the request decoder). Its
// neighbours keep their numbers.
func TestRetiredOpcodeIsUnknown(t *testing.T) {
	if OpScan != 5 || OpGetV != 7 || OpTxn != 14 {
		t.Fatalf("opcodes renumbered: Scan %d GetV %d Txn %d, want 5 7 14", OpScan, OpGetV, OpTxn)
	}
	for _, op := range []Op{6, 99} {
		if _, err := DecodeResponse(append(make([]byte, 8), byte(op), byte(StatusOK))); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeResponse(op %d): err = %v, want ErrMalformed", op, err)
		}
		if _, err := AppendRequest(nil, &Request{Op: op}); err == nil {
			t.Errorf("AppendRequest(op %d) encoded", op)
		}
		if _, err := AppendResponse(nil, &Response{Op: op, Status: StatusOK}); err == nil {
			t.Errorf("AppendResponse(op %d) encoded", op)
		}
	}
}

func TestBatchTooLarge(t *testing.T) {
	req := Request{Op: OpPutBatch, Pairs: make([]KV, MaxPairs+1)}
	if _, err := AppendRequest(nil, &req); !errors.Is(err, ErrTooManyKV) {
		t.Fatalf("err = %v, want ErrTooManyKV", err)
	}
	resp := Response{Op: OpScan, Status: StatusOK, Pairs: make([]KV, MaxPairs+1)}
	if _, err := AppendResponse(nil, &resp); !errors.Is(err, ErrTooManyKV) {
		t.Fatalf("err = %v, want ErrTooManyKV", err)
	}
	// A max-size batch still fits under MaxFrame.
	req.Pairs = make([]KV, MaxPairs)
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > MaxFrame+FrameHdrSize {
		t.Fatalf("max batch frame is %d bytes, exceeds MaxFrame %d", len(frame), MaxFrame)
	}
	// The decoders enforce the same cap, so a hand-rolled peer cannot
	// push frames the encoders would refuse to produce.
	over := be.AppendUint32(append(make([]byte, 8), byte(OpPutBatch)), MaxPairs+1)
	for i := 0; i < (MaxPairs+1)*2; i++ {
		over = be.AppendUint64(over, 0)
	}
	if _, err := DecodeRequest(over); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode of %d-pair batch: %v, want ErrMalformed", MaxPairs+1, err)
	}
}

// TestTxnLimits pins the revision-4 transaction caps on both sides: the
// op-count cap, the per-op key/value caps, and the whole-frame byte
// budget (many mid-sized values can overflow MaxFrame without any single
// op being oversized).
func TestTxnLimits(t *testing.T) {
	over := Request{Op: OpTxn, TxnOps: make([]TxnOp, MaxTxnOps+1)}
	for i := range over.TxnOps {
		over.TxnOps[i] = TxnOp{Kind: TxnPut, Key: uint64(i)}
	}
	if _, err := AppendRequest(nil, &over); !errors.Is(err, ErrTooManyKV) {
		t.Fatalf("encode %d ops: %v, want ErrTooManyKV", MaxTxnOps+1, err)
	}
	badKey := Request{Op: OpTxn, TxnOps: []TxnOp{{Kind: TxnPutK}}}
	if _, err := AppendRequest(nil, &badKey); !errors.Is(err, ErrMalformed) {
		t.Fatalf("encode empty txn key: %v, want ErrMalformed", err)
	}
	badVal := Request{Op: OpTxn, TxnOps: []TxnOp{
		{Kind: TxnPutK, KKey: []byte("k"), VVal: make([]byte, MaxKValue+1)}}}
	if _, err := AppendRequest(nil, &badVal); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("encode oversized txn value: %v, want ErrFrameTooBig", err)
	}
	badKind := Request{Op: OpTxn, TxnOps: []TxnOp{{Kind: 77}}}
	if _, err := AppendRequest(nil, &badKind); !errors.Is(err, ErrMalformed) {
		t.Fatalf("encode unknown txn kind: %v, want ErrMalformed", err)
	}
	// 64 ops of 64KiB values: each individually legal, 4MiB in total.
	fat := Request{Op: OpTxn}
	for i := 0; i < 64; i++ {
		fat.TxnOps = append(fat.TxnOps, TxnOp{
			Kind: TxnPutK,
			KKey: []byte{byte(i), 1},
			VVal: make([]byte, 64<<10),
		})
	}
	if _, err := AppendRequest(nil, &fat); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("encode over-budget txn: %v, want ErrFrameTooBig", err)
	}
	// A max-count txn of fixed-width ops fits comfortably.
	full := Request{ID: 9, Op: OpTxn, TxnOps: make([]TxnOp, MaxTxnOps)}
	for i := range full.TxnOps {
		full.TxnOps[i] = TxnOp{Kind: TxnPut, Key: uint64(i), Val: uint64(i) * 3}
	}
	frame, err := AppendRequest(nil, &full)
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(bytes.NewReader(frame), MaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.TxnOps) != MaxTxnOps || got.TxnOps[500].Val != 1500 {
		t.Fatalf("max-count txn mangled: %d ops", len(got.TxnOps))
	}
}

// TestVarlenLimits pins the size caps of the varlen ops on both the encode
// and decode side, so a conforming peer can never be handed a frame it
// cannot re-emit (the fuzz round-trip property depends on this symmetry).
func TestVarlenLimits(t *testing.T) {
	big := make([]byte, MaxValue+1)
	if _, err := AppendRequest(nil, &Request{Op: OpPutV, Key: 1, VVal: big}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("encode oversized PutV: %v, want ErrFrameTooBig", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpGetV, Status: StatusOK, VVal: big}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("encode oversized GetV: %v, want ErrFrameTooBig", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpScanV, Status: StatusOK,
		VPairs: []VKV{{Key: 1, Val: big}}}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("encode oversized ScanV element: %v, want ErrFrameTooBig", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpScanV, Status: StatusOK,
		VPairs: make([]VKV, MaxPairs+1)}); !errors.Is(err, ErrTooManyKV) {
		t.Fatalf("encode over-long ScanV: %v, want ErrTooManyKV", err)
	}

	// Decoder side: a hand-rolled peer pushing the same violations is
	// rejected as malformed.
	overReq := append(be.AppendUint64(append(make([]byte, 8), byte(OpPutV)), 1), big...)
	if _, err := DecodeRequest(overReq); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode oversized PutV: %v, want ErrMalformed", err)
	}
	overResp := append(make([]byte, 8), byte(OpGetV), byte(StatusOK))
	overResp = append(overResp, big...)
	if _, err := DecodeResponse(overResp); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode oversized GetV: %v, want ErrMalformed", err)
	}
	// ScanV with a lying element length.
	lie := append(make([]byte, 8), byte(OpScanV), byte(StatusOK))
	lie = be.AppendUint32(lie, 1)
	lie = be.AppendUint64(lie, 7)
	lie = be.AppendUint32(lie, 100) // claims 100 bytes, provides 2
	lie = append(lie, 0xaa, 0xbb)
	if _, err := DecodeResponse(lie); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode lying ScanV: %v, want ErrMalformed", err)
	}
	// The largest legal PutV still fits one frame.
	okReq := Request{Op: OpPutV, Key: 1, VVal: make([]byte, MaxValue)}
	frame, err := AppendRequest(nil, &okReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > MaxFrame+FrameHdrSize {
		t.Fatalf("max PutV frame is %d bytes, exceeds MaxFrame %d", len(frame), MaxFrame)
	}
}

// TestByteKeyLimits pins the revision-3 size caps symmetrically on encode
// and decode, like TestVarlenLimits does for revision 2: keys are 1..MaxKey
// bytes, scan bounds at most MaxScanBound, values at most MaxKValue.
func TestByteKeyLimits(t *testing.T) {
	bigKey := make([]byte, MaxKey+1)
	if _, err := AppendRequest(nil, &Request{Op: OpGetK, KKey: bigKey}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("encode oversized GetK key: %v, want ErrMalformed", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpPutK}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("encode empty PutK key: %v, want ErrMalformed", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpPutK, KKey: []byte("k"),
		VVal: make([]byte, MaxKValue+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("encode oversized PutK value: %v, want ErrFrameTooBig", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpScanK,
		KLo: make([]byte, MaxScanBound+1)}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("encode oversized ScanK bound: %v, want ErrMalformed", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpGetK, Status: StatusOK,
		VVal: make([]byte, MaxKValue+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("encode oversized GetK value: %v, want ErrFrameTooBig", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpScanK, Status: StatusOK,
		KPairs: []KKV{{Key: nil, Val: []byte("v")}}}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("encode empty ScanK key: %v, want ErrMalformed", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpScanK, Status: StatusOK,
		KPairs: make([]KKV, MaxPairs+1)}); !errors.Is(err, ErrTooManyKV) {
		t.Fatalf("encode over-long ScanK: %v, want ErrTooManyKV", err)
	}

	// Decoder side: the same violations from a hand-rolled peer.
	overVal := append(make([]byte, 8), byte(OpPutK), 0, 1, 'k')
	overVal = append(overVal, make([]byte, MaxKValue+1)...)
	if _, err := DecodeRequest(overVal); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode oversized PutK value: %v, want ErrMalformed", err)
	}
	overResp := append(make([]byte, 8), byte(OpGetK), byte(StatusOK))
	overResp = append(overResp, make([]byte, MaxKValue+1)...)
	if _, err := DecodeResponse(overResp); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode oversized GetK value: %v, want ErrMalformed", err)
	}
	// ScanK with a lying entry length.
	lie := append(make([]byte, 8), byte(OpScanK), byte(StatusOK))
	lie = be.AppendUint32(lie, 1)
	lie = be.AppendUint16(lie, 3)
	lie = be.AppendUint32(lie, 100) // claims 3+100 bytes, provides 4
	lie = append(lie, 'a', 'b', 'c', 'd')
	if _, err := DecodeResponse(lie); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode lying ScanK: %v, want ErrMalformed", err)
	}
	// The largest legal PutK (max key + max value) still fits one frame.
	frame, err := AppendRequest(nil, &Request{Op: OpPutK,
		KKey: make([]byte, MaxKey), VVal: make([]byte, MaxKValue)})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > MaxFrame+FrameHdrSize {
		t.Fatalf("max PutK frame is %d bytes, exceeds MaxFrame %d", len(frame), MaxFrame)
	}
	// So does the largest legal single-entry ScanK response — the bound
	// MaxKValue exists exactly for this: one max key, max value, entry
	// header, and response framing inside MaxFrame.
	rframe, err := AppendResponse(nil, &Response{Op: OpScanK, Status: StatusOK,
		KPairs: []KKV{{Key: make([]byte, MaxKey), Val: make([]byte, MaxKValue)}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rframe) > MaxFrame+FrameHdrSize {
		t.Fatalf("max ScanK entry frame is %d bytes, exceeds MaxFrame %d", len(rframe), MaxFrame)
	}
}

func TestErrorMessageRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 1000)
	r := Response{ID: 1, Op: OpPut, Status: StatusErr, Msg: long}
	frame, err := AppendResponse(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(bytes.NewReader(frame), MaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Msg != long {
		t.Fatalf("message corrupted: %d bytes, want %d", len(got.Msg), len(long))
	}
}

// TestOversizedResponseRefused: MaxFrame caps every frame, not only a Txn
// request. A ScanV or ScanK page whose values are each within their cap can
// still add up to a body over MaxFrame. The encoder refuses it and leaves
// dst as it was, MustAppendResponse answers with an error frame instead,
// and the decoder rejects such a body outright.
func TestOversizedResponseRefused(t *testing.T) {
	for _, r := range []Response{
		{ID: 1, Op: OpScanV, Status: StatusOK, VPairs: []VKV{
			{Key: 1, Val: make([]byte, MaxValue)}, {Key: 2, Val: make([]byte, MaxValue)}}},
		{ID: 2, Op: OpScanK, Status: StatusOK, KPairs: []KKV{
			{Key: []byte("a"), Val: make([]byte, MaxKValue)}, {Key: []byte("b"), Val: make([]byte, MaxKValue)}}},
	} {
		dst := []byte("earlier frames")
		out, err := AppendResponse(dst, &r)
		if !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("%s: encode of a %d-pair page: %v, want ErrFrameTooBig", r.Op, len(r.VPairs)+len(r.KPairs), err)
		}
		if string(out) != "earlier frames" {
			t.Fatalf("%s: a refused frame left %d bytes behind", r.Op, len(out)-len(dst))
		}
		frame := MustAppendResponse(nil, &r)
		if len(frame)-FrameHdrSize > MaxFrame {
			t.Fatalf("%s: MustAppendResponse emitted a %d-byte body", r.Op, len(frame)-FrameHdrSize)
		}
		got, err := DecodeResponse(frame[FrameHdrSize:])
		if err != nil || got.Status != StatusErr || got.ID != r.ID {
			t.Fatalf("%s: MustAppendResponse frame decodes as %+v, %v; want a StatusErr", r.Op, got, err)
		}
		// The same page built by hand, as a peer ignoring the cap sends it.
		body := append(be.AppendUint64(nil, r.ID), byte(r.Op), byte(StatusOK))
		if r.Op == OpScanV {
			body = be.AppendUint32(body, 2)
			for _, p := range r.VPairs {
				body = append(be.AppendUint32(be.AppendUint64(body, p.Key), uint32(len(p.Val))), p.Val...)
			}
		} else {
			body = be.AppendUint32(body, 2)
			for _, p := range r.KPairs {
				body = be.AppendUint32(be.AppendUint16(body, uint16(len(p.Key))), uint32(len(p.Val)))
				body = append(append(body, p.Key...), p.Val...)
			}
		}
		if _, err := DecodeResponse(body); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: decode of a %d-byte body: %v, want ErrMalformed", r.Op, len(body), err)
		}
	}
}

// TestDecodeCountsBoundedByPayload pins PROTOCOL.md's rule that decoders
// validate a declared count against the bytes actually present before they
// allocate: each body declares the most entries its list may hold but
// carries only a few bytes, and must fail without allocating for the count.
// A pairs slice made before the check would cost 512 KiB or more.
func TestDecodeCountsBoundedByPayload(t *testing.T) {
	req := func(op Op, n uint32, tail int) []byte {
		return append(be.AppendUint32(append(make([]byte, 8), byte(op)), n), make([]byte, tail)...)
	}
	resp := func(op Op, n uint32, tail int) []byte {
		return append(be.AppendUint32(append(make([]byte, 8), byte(op), byte(StatusOK)), n), make([]byte, tail)...)
	}
	for _, tc := range []struct {
		name string
		body []byte
		dec  func([]byte) error
	}{
		{"PutBatch", req(OpPutBatch, MaxPairs, 16), func(b []byte) error { _, err := DecodeRequest(b); return err }},
		{"Txn", req(OpTxn, MaxTxnOps, 9), func(b []byte) error { _, err := DecodeRequest(b); return err }},
		{"Scan", resp(OpScan, MaxPairs, 16), func(b []byte) error { _, err := DecodeResponse(b); return err }},
		{"ScanV", resp(OpScanV, MaxPairs, 12), func(b []byte) error { _, err := DecodeResponse(b); return err }},
		{"ScanK", resp(OpScanK, MaxPairs, 7), func(b []byte) error { _, err := DecodeResponse(b); return err }},
	} {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if err := tc.dec(tc.body); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: %v, want ErrMalformed", tc.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
			t.Errorf("%s: a rejected decode allocated %d bytes, want < 4 KiB", tc.name, per)
		}
	}
}
