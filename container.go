package pastri

import "repro/internal/container"

// Mixed-geometry containers: real ERI runs over hybrid basis
// configurations emit many block shapes (the paper's "(df|fd), etc."
// datasets). A Container groups blocks by geometry into independent
// PaSTRI sections while preserving the original block order.

// BlockGeometry is the shape of one block in a mixed stream.
type BlockGeometry struct {
	NumSubBlocks int
	SubBlockSize int
}

// BlockSize returns the number of float64 values per block.
func (g BlockGeometry) BlockSize() int { return g.NumSubBlocks * g.SubBlockSize }

// ContainerWriter assembles a mixed-geometry compressed container.
type ContainerWriter struct {
	w *container.Writer
}

// NewContainerWriter creates a container writer; o supplies the error
// bound, metric, encoding, worker, collector and logger settings (its
// geometry fields are ignored — each block carries its own).
func NewContainerWriter(o Options) (*ContainerWriter, error) {
	w, err := container.NewWriter(o.internal())
	if err != nil {
		return nil, err
	}
	return &ContainerWriter{w: w}, nil
}

// WriteBlock appends one block of the given geometry.
func (c *ContainerWriter) WriteBlock(g BlockGeometry, block []float64) error {
	return c.w.WriteBlock(container.Geometry{NumSB: g.NumSubBlocks, SBSize: g.SubBlockSize}, block)
}

// Blocks returns the number of blocks written.
func (c *ContainerWriter) Blocks() int { return c.w.Blocks() }

// Sections returns the number of distinct geometries seen.
func (c *ContainerWriter) Sections() int { return c.w.Sections() }

// Bytes compresses all sections and serializes the container.
func (c *ContainerWriter) Bytes() ([]byte, error) { return c.w.Bytes() }

// ContainerReader replays a mixed-geometry container in original block
// order.
type ContainerReader struct {
	r *container.Reader
}

// NewContainerReader parses a serialized container.
func NewContainerReader(buf []byte) (*ContainerReader, error) {
	r, err := container.NewReader(buf)
	if err != nil {
		return nil, err
	}
	return &ContainerReader{r: r}, nil
}

// Blocks returns the total block count.
func (c *ContainerReader) Blocks() int { return c.r.Blocks() }

// GeometryOf returns the geometry of block i without decompressing it.
func (c *ContainerReader) GeometryOf(i int) (BlockGeometry, error) {
	g, err := c.r.GeometryOf(i)
	if err != nil {
		return BlockGeometry{}, err
	}
	return BlockGeometry{NumSubBlocks: g.NumSB, SubBlockSize: g.SBSize}, nil
}

// Next decompresses the next block in original order; after the last
// block it returns nil data.
func (c *ContainerReader) Next() ([]float64, BlockGeometry, error) {
	data, g, err := c.r.Next()
	return data, BlockGeometry{NumSubBlocks: g.NumSB, SubBlockSize: g.SBSize}, err
}

// Reset rewinds the replay to the first block.
func (c *ContainerReader) Reset() { c.r.Reset() }
