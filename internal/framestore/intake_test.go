package framestore

import (
	"context"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// intakeFrameBytes is one 256×192 RGB frame, the size every camera of the
// benchmark world renders.
const intakeFrameBytes = 256 * 192 * 3

// tcpReplicas serves one store per dir ("" keeps it in memory) behind a
// framestore server on its own loopback TCP endpoint, and returns the
// stores and a MultiClient sending from a camera endpoint to all of them
// with a quorum of all. Cleanup closes everything.
func tcpReplicas(tb testing.TB, dirs ...string) (*MultiClient, []*Store) {
	tb.Helper()
	var (
		addrs  []string
		stores []*Store
	)
	for _, dir := range dirs {
		st, err := OpenStoreConfig(dir, Config{SegmentBytes: 16 << 20, RetainBytes: 256 << 20})
		if err != nil {
			tb.Fatal(err)
		}
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			_ = st.Close()
			tb.Fatal(err)
		}
		tb.Cleanup(func() {
			_ = ep.Close()
			_ = st.Close()
		})
		if _, err := NewServer(st, ep); err != nil {
			tb.Fatal(err)
		}
		addrs = append(addrs, ep.Addr())
		stores = append(stores, st)
	}
	cam, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = cam.Close() })
	mc, err := NewMultiClient(cam, addrs, MultiClientConfig{Quorum: len(addrs), Registry: obs.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	return mc, stores
}

// waitStored waits until every store has indexed frame n of camera. Sends
// are one-way, so a frame lands some time after StoreFrameContext
// returns; one sender ships a camera's frames 1..n in order over one
// connection per replica, so frame n landing means every frame before it
// has (retention may have dropped the oldest since).
func waitStored(tb testing.TB, stores []*Store, camera string, n int) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for i, st := range stores {
		for {
			ok := false
			st.mu.Lock()
			if cl, found := st.logs[camera]; found {
				_, ok = cl.index[int64(n)]
			}
			st.mu.Unlock()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				tb.Fatalf("replica %d has not stored frame %d of %s (holds %d)", i, n, camera, st.Count(camera))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// patterned returns a w×h frame whose pixels are a function of camera and
// seq, so the frames of one camera differ byte for byte.
func patterned(camera string, seq int64, w, h int) protocol.FrameRecord {
	salt := int64(crc32.ChecksumIEEE([]byte(camera)))
	pix := make([]byte, w*h*3)
	for i := range pix {
		pix[i] = byte(int64(i)*7 + seq*131 + salt)
	}
	return protocol.FrameRecord{
		CameraID:  camera,
		Seq:       seq,
		Timestamp: time.Date(2020, 12, 7, 0, 0, 0, int(seq), time.UTC),
		Width:     w,
		Height:    h,
		Pixels:    pix,
	}
}

// checkPixels reports an error unless got is want's frame with want's
// pixels.
func checkPixels(t *testing.T, what string, got, want protocol.FrameRecord) {
	t.Helper()
	g, w := crc32.ChecksumIEEE(got.Pixels), crc32.ChecksumIEEE(want.Pixels)
	if got.CameraID != want.CameraID || got.Seq != want.Seq || g != w {
		t.Errorf("%s: %s/%d pixel CRC %08x, want %s/%d %08x", what, got.CameraID, got.Seq, g, want.CameraID, want.Seq, w)
	}
}

// TestInMemoryServerOverTCPKeepsEveryFrame covers framestore-server's
// default, an in-memory store behind a TCP endpoint. The endpoint reads
// each envelope into the buffer the one before it used, so a store that
// kept a view of that buffer would hold the last frame's pixels under
// every seq.
func TestInMemoryServerOverTCPKeepsEveryFrame(t *testing.T) {
	const frames = 64
	mc, stores := tcpReplicas(t, "")
	for seq := int64(1); seq <= frames; seq++ {
		if err := mc.StoreFrameContext(context.Background(), patterned("cam1", seq, 16, 12)); err != nil {
			t.Fatal(err)
		}
	}
	waitStored(t, stores, "cam1", frames)
	all, err := stores[0].Range("cam1", 1, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != frames {
		t.Fatalf("Range returned %d frames, want %d", len(all), frames)
	}
	for i, got := range all {
		want := patterned("cam1", int64(i+1), 16, 12)
		checkPixels(t, "Range", got, want)
		one, err := stores[0].Get("cam1", want.Seq)
		if err != nil {
			t.Fatal(err)
		}
		checkPixels(t, "Get", one, want)
	}
}

// TestMultiClientConcurrentStoreFrame shares one MultiClient, and so its
// pool of record buffers, among 8 senders of 200 distinct frames each,
// sent over TCP to two disk replicas. Frame sizes vary, so a buffer grown
// for one frame carries a smaller one; a buffer handed out while a send
// still used it would store one frame's bytes under another's seq.
func TestMultiClientConcurrentStoreFrame(t *testing.T) {
	const senders, perSender = 8, 200
	mc, stores := tcpReplicas(t, t.TempDir(), t.TempDir())
	frame := func(g int, seq int64) protocol.FrameRecord {
		return patterned(fmt.Sprintf("cam%d", g), seq, 8+int(seq%13)*8, 48)
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := int64(1); seq <= perSender; seq++ {
				if err := mc.StoreFrameContext(context.Background(), frame(g, seq)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < senders; g++ {
		camera := fmt.Sprintf("cam%d", g)
		waitStored(t, stores, camera, perSender)
		for i, st := range stores {
			for seq := int64(1); seq <= perSender; seq++ {
				got, err := st.Get(camera, seq)
				if err != nil {
					t.Fatalf("replica %d: %v", i, err)
				}
				checkPixels(t, fmt.Sprintf("replica %d", i), got, frame(g, seq))
			}
		}
	}
}

// intakeSender returns a function sending frames from..to of camera cam1
// through mc. It reuses four pre-rendered 256×192 frames, so the sending
// loop allocates no pixels of its own.
func intakeSender(tb testing.TB, mc *MultiClient) func(from, to int64) {
	recs := make([]protocol.FrameRecord, 4)
	for i := range recs {
		recs[i] = patterned("cam1", int64(i), 256, 192)
	}
	return func(from, to int64) {
		for seq := from; seq <= to; seq++ {
			rec := recs[seq%int64(len(recs))]
			rec.Seq = seq
			if err := mc.StoreFrameContext(context.Background(), rec); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestFrameIntakeAllocatesNoFrameBuffer bounds what the whole process
// allocates per frame, after warm-up, while a MultiClient ships 147 456-
// byte frames over loopback TCP to two disk replicas. The client encodes
// into a pooled buffer and each replica reads into its connection's
// buffer, so no step allocates a frame-sized buffer; sealing a record per
// frame and reading each replica's body into a fresh buffer would cost
// three.
func TestFrameIntakeAllocatesNoFrameBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random")
	}
	const warm, frames = 50, 500
	mc, stores := tcpReplicas(t, t.TempDir(), t.TempDir())
	send := intakeSender(t, mc)
	send(1, warm)
	waitStored(t, stores, "cam1", warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(warm+1, warm+frames)
	waitStored(t, stores, "cam1", warm+frames)
	runtime.ReadMemStats(&after)
	perFrame := (after.TotalAlloc - before.TotalAlloc) / frames
	t.Logf("allocated %d bytes per %d-byte frame", perFrame, intakeFrameBytes)
	if perFrame >= 32<<10 {
		t.Errorf("allocated %d bytes per %d-byte frame, want < 32 KiB", perFrame, intakeFrameBytes)
	}
}

// BenchmarkFrameIntake is frame_flood's frame path without the camera
// pipeline: one MultiClient ships 147 456-byte frames over loopback TCP
// to two disk replicas, and the clock stops once both hold every frame.
func BenchmarkFrameIntake(b *testing.B) {
	mc, stores := tcpReplicas(b, b.TempDir(), b.TempDir())
	send := intakeSender(b, mc)
	b.SetBytes(intakeFrameBytes)
	b.ReportAllocs()
	b.ResetTimer()
	send(1, int64(b.N))
	waitStored(b, stores, "cam1", b.N)
}
