package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"
)

// fuzzMaxFrame is the frame limit FuzzFrameDecode reads under: small, so
// that a header declaring more than it is common among fuzzed inputs.
const fuzzMaxFrame = 1 << 12

// frameBytes is one frame as writeFrame puts it on the wire.
func frameBytes(ft frameType, payload []byte) []byte {
	b := append(frameMagic[:], byte(ft), 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// FuzzFrameDecode feeds arbitrary bytes to a stage connection's read side
// and every payload decoder, and pins the contract FuzzWireDecode pins for
// the tensor format:
//
//  1. no input panics readFrame, decodeActivations, decodeError or the
//     JSON handshake through jsonUnmarshal;
//  2. no input makes readFrame hold more than maxFrame bytes: a header
//     declaring more is refused before anything is allocated for it, and
//     decodeActivations writes only into the destinations the descriptors
//     size;
//  3. every failure is typed: a frame that cannot be read is ErrPeerClosed
//     or ErrProtocol, a payload that cannot be decoded ErrProtocol.
func FuzzFrameDecode(f *testing.F) {
	descs := []TensorDesc{{Name: "a", Shape: []int{1, 3}}, {Name: "b", Shape: []int{2, 2}}}
	shapes := [][]int{{1, 3}, {2, 2}}
	vals := [][]float32{{1, -2, 3.5}, {0, 1, 2, -0.25}}
	act, _ := appendActivations(nil, 7, vals, shapes, false, nil)
	act8, _ := appendActivations(nil, 8, vals, shapes, true, nil)
	helloJSON, _ := json.Marshal(hello{Version: ProtocolVersion, Model: "m", Role: "feed", Shard: 0, Count: 2, Tensors: descs})
	welcomeJSON, _ := json.Marshal(welcome{Version: ProtocolVersion, Model: "m", Count: 2, Inputs: descs, Outputs: descs[:1]})
	f.Add(frameBytes(ftActivations, act))
	f.Add(append(frameBytes(ftResult, act8), frameBytes(ftDrain, nil)...))
	f.Add(frameBytes(ftError, appendError(nil, 9, &RemoteError{Shard: 1, Code: "run", Msg: "boom"})))
	f.Add(append(frameBytes(ftHello, helloJSON), frameBytes(ftWelcome, welcomeJSON)...))
	f.Add(frameBytes(ftActivations, act[:len(act)-3]))    // truncated tensor
	f.Add(frameBytes(ftActivations, append(act, 0)))      // a trailing byte
	f.Add(frameBytes(ftHello, nil)[:frameHeaderLen-2])    // truncated header
	f.Add([]byte("ORPF\x03\x00\x00\x00\xff\xff\xff\xff")) // length past the limit
	f.Add([]byte("ORPF\x03\x01\x00\x00\x00\x00\x00\x00")) // nonzero flags
	f.Add([]byte("XRPF\x03\x00\x00\x00\x00\x00\x00\x00")) // bad magic

	f.Fuzz(func(t *testing.T, data []byte) {
		fc := &frameConn{br: bufio.NewReader(bytes.NewReader(data)), maxFrame: fuzzMaxFrame}
		dst := [][]float32{make([]float32, 3), make([]float32, 4)}
		for {
			_, payload, err := fc.readFrame()
			if cap(fc.rbuf) > fuzzMaxFrame {
				t.Fatalf("readFrame holds a %d-byte buffer under a %d-byte limit", cap(fc.rbuf), fuzzMaxFrame)
			}
			if err != nil {
				if !errors.Is(err, ErrPeerClosed) && !errors.Is(err, ErrProtocol) {
					t.Fatalf("readFrame: untyped error %v", err)
				}
				return
			}
			if _, err := decodeActivations(payload, descs, dst); err != nil && !errors.Is(err, ErrProtocol) {
				t.Fatalf("decodeActivations: untyped error %v", err)
			}
			if len(dst[0]) != 3 || len(dst[1]) != 4 {
				t.Fatalf("decodeActivations resized its destinations to %d and %d", len(dst[0]), len(dst[1]))
			}
			if _, re, err := decodeError(payload); err != nil {
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("decodeError: untyped error %v", err)
				}
			} else if re == nil {
				t.Fatal("decodeError succeeded without a RemoteError")
			}
			var h hello
			var w welcome
			for _, v := range []any{&h, &w} {
				if err := jsonUnmarshal(payload, v); err != nil && !errors.Is(err, ErrProtocol) {
					t.Fatalf("jsonUnmarshal(%T): untyped error %v", v, err)
				}
			}
		}
	})
}
