// Package skyband is a fixture stand-in for a published k-band.
package skyband

import "kernel"

type Band struct{ coords kernel.Coords }

func (b *Band) Coords() *kernel.Coords { return &b.coords }

func (b *Band) Members() (ids, counts []int32) { return nil, nil }
