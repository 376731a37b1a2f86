//go:build !noasm

package gemm

import "syscall"

// requestXTileData asks Linux for this process's permission to use the
// AMX tile data state (arch_prctl ARCH_REQ_XCOMP_PERM with
// XFEATURE_XTILEDATA), without which the first tile instruction faults.
// The permission is the process's own; no system setting changes.
func requestXTileData() bool {
	const archReqXcompPerm, xfeatureXTileData = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXTileData, 0)
	return errno == 0
}
