package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"testing"
)

// TestGoldenFrames pins the encoded bytes of every opcode's request and
// of every response shape. The hex was captured from the encoder before
// the paged SCAN, GETSEQ and PUTTTL opcodes were retired, so a request
// without the optional GET min-seq or PUT TTL field, and every response,
// must keep exactly these bytes: clients and servers of either build
// interoperate on them.
func TestGoldenFrames(t *testing.T) {
	reqs := []struct {
		name, hex string
		req       Request
	}{
		{"ping", "010c0b0a01", Request{ID: 0x0A0B0C01, Op: OpPing}},
		{"get", "020c0b0a02036b6579", Request{ID: 0x0A0B0C02, Op: OpGet, Key: []byte("key")}},
		{"put", "030c0b0a03016b0576616c7565", Request{ID: 0x0A0B0C03, Op: OpPut, Key: []byte("k"), Value: []byte("value")}},
		{"put-empty", "130c0b0a03016b00", Request{ID: 0x0A0B0C13, Op: OpPut, Key: []byte("k")}},
		{"delete", "040c0b0a0404676f6e65", Request{ID: 0x0A0B0C04, Op: OpDelete, Key: []byte("gone")}},
		{"batch", "060c0b0a0603000161013101016200016300", Request{ID: 0x0A0B0C06, Op: OpBatch, Ops: []Op{
			{Key: []byte("a"), Value: []byte("1")}, {Delete: true, Key: []byte("b")}, {Key: []byte("c")}}}},
		{"stats", "070c0b0a07", Request{ID: 0x0A0B0C07, Op: OpStats}},
		{"trace", "080c0b0a080174", Request{ID: 0x0A0B0C08, Op: OpTrace, Key: []byte("t")}},
		{"checkpoint", "090c0b0a09076e696768746c79", Request{ID: 0x0A0B0C09, Op: OpCheckpoint, Key: []byte("nightly")}},
		{"replsync", "0a0c0b0a0a0300078080808020", Request{ID: 0x0A0B0C0A, Op: OpReplSync, Seqs: []uint64{0, 7, 1 << 33}}},
		{"merkle", "0c0c0b0a0c8002020909", Request{ID: 0x0A0B0C0C, Op: OpMerkle, Buckets: 256, Seqs: []uint64{9, 9}}},
		{"merkle-current", "1c0c0b0a0c0000", Request{ID: 0x0A0B0C1C, Op: OpMerkle}},
		{"multiget", "0d0c0b0a0d03016102626203636363", Request{ID: 0x0A0B0C0D, Op: OpMultiGet, Keys: [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}}},
		{"scanstream", "0e0c0b0a0e0161017a07", Request{ID: 0x0A0B0C0E, Op: OpScanStream, Lo: []byte("a"), Hi: []byte("z"), Limit: 7}},
		{"incr", "100c0b0a10016b0d", Request{ID: 0x0A0B0C10, Op: OpIncr, Key: []byte("k"), Delta: -7}},
		{"cas", "110c0b0a11016b01036f6c64036e6577", Request{ID: 0x0A0B0C11, Op: OpCas, Key: []byte("k"), HasExpected: true, Expected: []byte("old"), Value: []byte("new")}},
		{"cas-absent", "210c0b0a11016b00036e6577", Request{ID: 0x0A0B0C21, Op: OpCas, Key: []byte("k"), Value: []byte("new")}},
		{"sketch-freq", "120c0b0a1201016b", Request{ID: 0x0A0B0C12, Op: OpSketch, Sub: SketchFreq, Key: []byte("k")}},
		{"sketch-card", "220c0b0a1202", Request{ID: 0x0A0B0C22, Op: OpSketch, Sub: SketchCard}},
	}
	for _, c := range reqs {
		if got := hex.EncodeToString(AppendRequest(nil, &c.req)); got != c.hex {
			t.Errorf("request %s: encoded %s, golden %s", c.name, got, c.hex)
		}
		payload, _ := hex.DecodeString(c.hex)
		if _, err := DecodeRequest(payload); err != nil {
			t.Errorf("request %s: golden bytes no longer decode: %v", c.name, err)
		}
	}

	ok := func(id uint32, body []byte) Response { return Response{ID: id, Status: StatusOK, Value: body} }
	resps := []struct {
		name, hex string
		resp      Response
	}{
		{"ok-empty", "010c0b0a00", Response{ID: 0x0A0B0C01, Status: StatusOK}},
		{"value", "020c0b0a0076616c7565", ok(0x0A0B0C02, []byte("value"))},
		{"not-found", "030c0b0a01", Response{ID: 0x0A0B0C03, Status: StatusNotFound}},
		{"error", "040c0b0a02626f6f6d", Response{ID: 0x0A0B0C04, Status: StatusError, Value: []byte("boom")}},
		{"throttled", "050c0b0a0372617465206c696d6974206578636565646564", Response{ID: 0x0A0B0C05, Status: StatusThrottled, Value: []byte("rate limit exceeded")}},
		{"shutdown", "060c0b0a04636c6f736564", Response{ID: 0x0A0B0C06, Status: StatusShutdown, Value: []byte("closed")}},
		{"conflict", "070c0b0a056d69736d61746368", Response{ID: 0x0A0B0C07, Status: StatusConflict, Value: []byte("mismatch")}},
		{"conn-error", "00000000027365727665723a206d616c666f726d6564206672616d65", Response{ID: ConnErrID, Status: StatusError, Value: []byte("server: malformed frame")}},
		{"seq-acks", "080c0b0a0002000c07808080808020", ok(0x0A0B0C08, AppendSeqAcks(nil, []ShardSeq{{Shard: 0, Seq: 12}, {Shard: 7, Seq: 1 << 40}}))},
		{"multiget", "090c0b0a0003000100010576616c7565", ok(0x0A0B0C09, AppendMultiGetValues(nil, [][]byte{nil, {}, []byte("value")}))},
		{"scan-page", "0a0c0b0a00010201610131016200", Response{ID: 0x0A0B0C0A, Status: StatusOK, Pairs: []KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b")}}, More: true}},
		{"scan-last", "0b0c0b0a000000", Response{ID: 0x0A0B0C0B, Status: StatusOK, Pairs: []KV{}}},
	}
	for _, c := range resps {
		if got := hex.EncodeToString(AppendResponse(nil, &c.resp)); got != c.hex {
			t.Errorf("response %s: encoded %s, golden %s", c.name, got, c.hex)
		}
	}

	// The length prefix: uint32 LE payload length, then the payload.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteFrame(bw, AppendRequest(nil, &reqs[0].req)); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if got := hex.EncodeToString(buf.Bytes()); got != "05000000010c0b0a01" {
		t.Errorf("framed ping: %s", got)
	}
}

// TestOptionalFields pins the optional trailing fields: GET's min-seq is
// sent only when above zero, and PUT's TTL whenever HasTTL is set — a
// 0 ms TTL included — each as one trailing uvarint after the golden
// body.
func TestOptionalFields(t *testing.T) {
	cases := []struct {
		name, hex string
		req       Request
	}{
		{"get-minseq-0", "020c0b0a02036b6579", Request{ID: 0x0A0B0C02, Op: OpGet, Key: []byte("key")}},
		{"get-minseq", "020c0b0a02036b6579ac02", Request{ID: 0x0A0B0C02, Op: OpGet, Key: []byte("key"), MinSeq: 300}},
		{"put-ttl", "030c0b0a03016b0576616c7565e807", Request{ID: 0x0A0B0C03, Op: OpPut, Key: []byte("k"), Value: []byte("value"), HasTTL: true, TTLMillis: 1000}},
		{"put-ttl-0", "030c0b0a03016b0576616c756500", Request{ID: 0x0A0B0C03, Op: OpPut, Key: []byte("k"), Value: []byte("value"), HasTTL: true}},
	}
	for _, c := range cases {
		enc := AppendRequest(nil, &c.req)
		if got := hex.EncodeToString(enc); got != c.hex {
			t.Errorf("%s: encoded %s, want %s", c.name, got, c.hex)
		}
		dec, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if dec.MinSeq != c.req.MinSeq || dec.HasTTL != c.req.HasTTL || dec.TTLMillis != c.req.TTLMillis {
			t.Errorf("%s: decoded %+v, want %+v", c.name, dec, c.req)
		}
	}
}
