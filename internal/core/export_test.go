package core

// slice is the table's elements in one slice, for tests to compare.
func (c *chunked[T]) slice() []T {
	var out []T
	for _, chunk := range c.chunks {
		out = append(out, chunk...)
	}
	return out
}
