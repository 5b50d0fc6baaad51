package wire

import "testing"

// BenchmarkCodec times the codec on the frames a pipelined point-read
// workload moves: Get and Put request decode, Get request encode, Get
// response encode and decode, and a small ScanV page's decode.
func BenchmarkCodec(b *testing.B) {
	body := func(frame []byte, err error) []byte {
		if err != nil {
			b.Fatal(err)
		}
		return frame[FrameHdrSize:]
	}
	get := Request{ID: 1, Op: OpGet, Key: 42}
	getReq := body(AppendRequest(nil, &get))
	putReq := body(AppendRequest(nil, &Request{ID: 2, Op: OpPut, Key: 42, Val: 7}))
	getResp := Response{ID: 1, Op: OpGet, Status: StatusOK, Val: 7}
	getRespBody := body(AppendResponse(nil, &getResp))
	scanV := body(AppendResponse(nil, &Response{ID: 3, Op: OpScanV, Status: StatusOK, VPairs: []VKV{
		{Key: 1, Val: []byte("first value")}, {Key: 2, Val: []byte("second")}, {Key: 3, Val: []byte("3")},
	}}))
	decodeReq := func(body []byte) func(*testing.B) {
		return func(b *testing.B) {
			for b.Loop() {
				if _, err := DecodeRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	decodeResp := func(body []byte) func(*testing.B) {
		return func(b *testing.B) {
			for b.Loop() {
				if _, err := DecodeResponse(body); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	buf := make([]byte, 0, 256)
	b.Run("DecodeRequest/Get", decodeReq(getReq))
	b.Run("DecodeRequest/Put", decodeReq(putReq))
	b.Run("AppendRequest/Get", func(b *testing.B) {
		for b.Loop() {
			buf, _ = AppendRequest(buf[:0], &get)
		}
	})
	b.Run("AppendResponse/Get", func(b *testing.B) {
		for b.Loop() {
			buf, _ = AppendResponse(buf[:0], &getResp)
		}
	})
	b.Run("DecodeResponse/Get", decodeResp(getRespBody))
	b.Run("DecodeResponse/ScanV3", decodeResp(scanV))
}
