//go:build !linux && !noasm

package gemm

// requestXTileData reports false: the AMX kernel asks for the tile data
// state the Linux way only, so other systems keep vnni.
func requestXTileData() bool { return false }
