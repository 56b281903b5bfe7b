//go:build !linux

package core

// currentCPU is the processor the calling thread runs on; off Linux it
// cannot be told, and every source is anyone's to claim.
func currentCPU() int { return -1 }
