package proto

// The names alloc_test.go pins budgets under, over the one codec. Like the
// entry points in messages.go they call Fields directly, so what is counted
// is the layout's own allocations.

func segImageSize(s *SegImage) int {
	c := Cursor{mode: sizing}
	s.Fields(&c)
	return c.n
}

// EncodeSegImage is a FetchSeg reply as rpc.Typed produces it.
func EncodeSegImage(s *SegImage) []byte {
	b, _ := Encode(s)
	return b
}
