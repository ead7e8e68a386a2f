//go:build amd64 && !purego

#include "textflag.h"

// Native filtering-round classifier (see kernel.go for the contract).
// A leaf NOSPLIT function over caller-pinned memory: //go:noescape
// keeps the input buffer and bitmap off the heap-escape path, and it
// does not touch the stack guard.

// shufWin expands a 16-byte load into eight 2-byte sliding windows:
// byte pairs (0,1) (1,2) ... (7,8) land in the eight 16-bit lanes.
DATA shufWin<>+0(SB)/8, $0x0403030202010100
DATA shufWin<>+8(SB)/8, $0x0807070606050504
GLOBL shufWin<>(SB), RODATA|NOPTR, $16

// const31 broadcasts the 5-bit shift mask for the bit-test trick:
// shamt = ^w & 31 = 31 - (w & 31), so shifting the gathered bitmap
// word left by shamt moves window w's bit into the dword sign bit.
DATA const31<>+0(SB)/4, $31
GLOBL const31<>(SB), RODATA|NOPTR, $4

// func ViableMask64(p *byte, bitmap *uint64) uint64
//
// Eight groups of eight positions. Per group: one unaligned 16-byte
// load, VPSHUFB into eight 2-byte windows, zero-extend to dwords,
// VPGATHERDD on the bitmap (viewed as 2048 dwords, index w>>5), then
// VPSLLVD by ^w&31 parks each window's bit in its dword's sign bit and
// VMOVMSKPS compresses the group into 8 mask bits. The gather mask is
// all-ones and re-materialized per gather (VPGATHERDD consumes it).
TEXT ·ViableMask64(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), SI
	MOVQ bitmap+8(FP), DX
	VMOVDQU      shufWin<>(SB), X6
	VPBROADCASTD const31<>(SB), Y5
	XORQ R9, R9  // result accumulator
	XORQ R10, R10 // group byte offset == result shift (8 per group)

avx2_group:
	VMOVDQU   (SI)(R10*1), X0
	VPSHUFB   X6, X0, X0            // eight 16-bit windows
	VPMOVZXWD X0, Y0                // eight dword window indexes w
	VPSRLD    $5, Y0, Y1            // dword index w>>5
	VPCMPEQD  Y7, Y7, Y7            // gather mask: all lanes active
	VPGATHERDD Y7, (DX)(Y1*4), Y2   // bitmap dwords
	VPANDN    Y5, Y0, Y3            // shamt = ^w & 31
	VPSLLVD   Y3, Y2, Y2            // window bit -> sign bit
	VMOVMSKPS Y2, AX                // eight survivor bits
	MOVQ      R10, CX
	SHLQ      CX, AX
	ORQ       AX, R9
	ADDQ      $8, R10
	CMPQ      R10, $64
	JNE       avx2_group

	VZEROUPPER
	MOVQ R9, ret+16(FP)
	RET
