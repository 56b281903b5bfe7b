package greta

import "github.com/greta-cep/greta/internal/checkpoint"

// SetCheckpointFS makes the checkpoint stores of runtimes built or
// restored from now on use fsys (nil: the real filesystem) and returns
// the one it replaces. A store keeps the filesystem it was armed with.
func SetCheckpointFS(fsys checkpoint.FS) checkpoint.FS {
	prev := checkpointFS
	checkpointFS = fsys
	return prev
}
