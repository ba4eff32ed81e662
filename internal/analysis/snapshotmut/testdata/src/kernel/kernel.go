// Package kernel is a fixture stand-in for the flattened coordinate
// columns a band shares with its readers.
package kernel

type Coords struct{ cols [][]float64 }

func (c *Coords) Dim() int            { return len(c.cols) }
func (c *Coords) Col(j int) []float64 { return c.cols[j] }
