package tensor

import "testing"

// scratchSizes are 0, 1, and every power of two up to 2^16 with its
// neighbours: the edges of the size classes.
func scratchSizes() []int {
	ns := []int{0, 1}
	for p := 2; p <= 1<<16; p <<= 1 {
		ns = append(ns, p-1, p, p+1)
	}
	return ns
}

// TestScratchSizeClasses checks every request gets its length and room
// for it, both from an empty class and from buffers released by
// requests of every other size.
func TestScratchSizeClasses(t *testing.T) {
	for round := 0; round < 2; round++ {
		var held []*Tensor
		for _, n := range scratchSizes() {
			s := GetScratch(n)
			if len(s.Data) != n || cap(s.Data) < n || s.Len() != n {
				t.Fatalf("round %d: GetScratch(%d) has len %d cap %d", round, n, len(s.Data), cap(s.Data))
			}
			for i := range s.Data {
				s.Data[i] = float32(n)
			}
			held = append(held, s)
		}
		for _, s := range held {
			ReleaseScratch(s)
		}
	}
}

// TestScratchForeignBufferNeverServesLarger releases tensor.New buffers
// whose capacity is not a power of two, then holds enough requests
// between that capacity and the next power of two to drain their class:
// every one must still get its full length, so the foreign buffer never
// serves a request larger than itself.
func TestScratchForeignBufferNeverServesLarger(t *testing.T) {
	for _, c := range []int{3, 5, 1000, 1500, 3000} {
		next := 1
		for next < c {
			next <<= 1
		}
		for round := 0; round < 4; round++ {
			ReleaseScratch(New(c))
			var held []*Tensor
			for i := 0; i < 32; i++ {
				n := next - i%(next-c)
				s := GetScratch(n)
				if len(s.Data) != n || cap(s.Data) < n {
					t.Fatalf("after releasing cap %d: GetScratch(%d) has len %d cap %d", c, n, len(s.Data), cap(s.Data))
				}
				held = append(held, s)
			}
			for _, s := range held {
				ReleaseScratch(s)
			}
		}
	}
}

// TestReleaseScratchIgnoresEmpty checks releasing nothing is a no-op.
func TestReleaseScratchIgnoresEmpty(t *testing.T) {
	ReleaseScratch(nil)
	ReleaseScratch(&Tensor{})
	e := &Tensor{Shape: []int{0}, Data: []float32{}}
	ReleaseScratch(e)
	if s := GetScratch(0); len(s.Data) != 0 {
		t.Fatalf("GetScratch(0) has len %d", len(s.Data))
	}
}
