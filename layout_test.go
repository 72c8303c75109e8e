package nexus

import (
	"bytes"

	"nexus/internal/metadata"
)

// InlineFile is a 4 KiB file of b, as local_mixed's small files are:
// below metadata.MaxInlineSize, so its content is sealed inside its
// filenode, one object.
func InlineFile(b byte) []byte {
	return bytes.Repeat([]byte{b}, 4<<10)
}

// ChunkedFile is the smallest file of b above metadata.MaxInlineSize: its
// content is a data object beside its filenode.
func ChunkedFile(b byte) []byte {
	return bytes.Repeat([]byte{b}, metadata.MaxInlineSize+1)
}
