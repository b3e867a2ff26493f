package simnet

import (
	"testing"
	"unsafe"
)

// TestAccountingSizes pins the entry sizes MemoryBytes charges to the
// structs' sizes on 64-bit platforms, where the constants were taken;
// a field added to one of them must update its constant. On 32-bit
// platforms the structs are smaller and the constants keep the
// accounting, and the goldens that record it, identical.
func TestAccountingSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the accounting sizes are the 64-bit layouts")
	}
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"packet", unsafe.Sizeof(packet{}), packetBytes},
		{"epGen", unsafe.Sizeof(epGen{}), epGenBytes},
		{"slot", unsafe.Sizeof(slot{}), slotBytes},
		{"event", unsafe.Sizeof(event{}), eventBytes},
	} {
		if c.size != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, accounted as %d", c.name, c.size, c.want)
		}
	}
}
