package core

import (
	"runtime"
	"syscall"
	"unsafe"
)

// sysGetcpu is getcpu(2)'s number on the architectures listed (the
// syscall package does not name it on amd64), 0 on the others.
var sysGetcpu = map[string]uintptr{"amd64": 309, "arm64": 168}[runtime.GOARCH]

// currentCPU is the processor the calling thread runs on, -1 when it
// cannot be told.
func currentCPU() int {
	if sysGetcpu == 0 {
		return -1
	}
	var cpu uint32
	if _, _, errno := syscall.RawSyscall(sysGetcpu, uintptr(unsafe.Pointer(&cpu)), 0, 0); errno != 0 {
		return -1
	}
	return int(cpu)
}
