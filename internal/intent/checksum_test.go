package intent

import "testing"

// checksumValue is a 1 KiB value image, the size the exactly-once
// workloads write.
func checksumValue() []byte {
	val := make([]byte, 1024)
	for i := range val {
		val[i] = byte(i*131 + 7)
	}
	return val
}

// TestChecksumSingleBitFlips: flipping any one bit of the value or of the
// key changes the sum, and no two such flips share a sum. Exhaustive over
// a 1 KiB value and a YCSB-sized key.
func TestChecksumSingleBitFlips(t *testing.T) {
	key, val := []byte("user000000004711"), checksumValue()
	const tag = 0x1_0000_0007
	base := Checksum(key, val, tag)
	seen := map[uint64]string{base: "unflipped"}
	for _, side := range []struct {
		name string
		buf  []byte
	}{{"value", val}, {"key", key}} {
		for bit := 0; bit < 8*len(side.buf); bit++ {
			side.buf[bit/8] ^= 1 << (bit % 8)
			sum := Checksum(key, val, tag)
			side.buf[bit/8] ^= 1 << (bit % 8)
			if prev, dup := seen[sum]; dup {
				t.Fatalf("flipping %s bit %d gives the sum of %s", side.name, bit, prev)
			}
			seen[sum] = side.name
		}
	}
	if Checksum(key, val, tag) != base {
		t.Fatal("checksum not deterministic")
	}
}

// TestChecksumTagBits: every bit of the tag reaches the sum.
func TestChecksumTagBits(t *testing.T) {
	key, val := []byte("k"), checksumValue()
	base := Checksum(key, val, 0)
	for bit := 0; bit < 64; bit++ {
		if Checksum(key, val, 1<<bit) == base {
			t.Fatalf("tag bit %d does not change the sum", bit)
		}
	}
}

// TestChecksumGolden pins the function: the journal persists the sum in
// every intent record, so a journal written before a change to it would
// reject every retry after the change as a different op.
func TestChecksumGolden(t *testing.T) {
	const want = 0x108C1C2D170F7C0F
	if got := Checksum([]byte("user000000004711"), checksumValue(), 0x1_0000_0007); got != want {
		t.Fatalf("Checksum of the golden op = %#x, want %#x", got, want)
	}
}

var checksumSink uint64

// BenchmarkChecksum: the op sum of one exactly-once write of a 1 KiB
// value.
func BenchmarkChecksum(b *testing.B) {
	key, val := []byte("user000000004711"), checksumValue()
	b.SetBytes(int64(len(key) + len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink = Checksum(key, val, uint64(i))
	}
}
