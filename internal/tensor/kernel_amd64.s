//go:build amd64 && !purego

#include "textflag.h"

// The register-panel forward conv kernels. Every output lane runs the
// exact chain of the generic Go code, s = s + w[j]·rows[j][i] for
// j = 0, 1, …, k3-1: one VMULPD rounds the product, one VADDPD rounds
// the sum. No FMA, no reassociation. The Go wrappers
// in kernel_amd64.go check every slice bound and guarantee k3 ≥ 1, n ≥ 1.
//
// Register use, both kernels:
//	DI, SI  output panels a, b     R8, R9  weight rows wa, wb
//	R10     &rows[0] (24-byte slice headers; data pointer at +0)
//	R11     k3                     R12     n
//	AX      position i             BX      i + block width
//	CX      tap j                  DX      &rows[j]      R13  rows[j] data

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	// Leaf 1 ECX: bit 27 OSXSAVE, bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// Leaf 7 EBX bit 5: AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func panel2F64(a, b, wa, wb []float64, rows [][]float64, k3, n int)
TEXT ·panel2F64(SB), NOSPLIT, $0-136
	MOVQ a_base+0(FP), DI
	MOVQ b_base+24(FP), SI
	MOVQ wa_base+48(FP), R8
	MOVQ wb_base+72(FP), R9
	MOVQ rows_base+96(FP), R10
	MOVQ k3+120(FP), R11
	MOVQ n+128(FP), R12
	XORQ AX, AX

p2d_block:
	LEAQ 8(AX), BX
	CMPQ BX, R12
	JGT  p2d_tail
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	XORQ    CX, CX
	MOVQ    R10, DX

p2d_tap:
	MOVQ         (DX), R13
	VMOVUPD      (R13)(AX*8), Y4
	VMOVUPD      32(R13)(AX*8), Y5
	VBROADCASTSD (R8)(CX*8), Y6
	VBROADCASTSD (R9)(CX*8), Y7
	VMULPD       Y4, Y6, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y5, Y6, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       Y4, Y7, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       Y5, Y7, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         $24, DX
	INCQ         CX
	CMPQ         CX, R11
	JLT          p2d_tap
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, (SI)(AX*8)
	VMOVUPD      Y3, 32(SI)(AX*8)
	MOVQ         BX, AX
	JMP          p2d_block

p2d_tail:
	CMPQ   AX, R12
	JGE    p2d_done
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X2
	XORQ   CX, CX
	MOVQ   R10, DX

p2d_ttap:
	MOVQ   (DX), R13
	VMOVSD (R13)(AX*8), X4
	VMULSD (R8)(CX*8), X4, X8
	VADDSD X8, X0, X0
	VMULSD (R9)(CX*8), X4, X10
	VADDSD X10, X2, X2
	ADDQ   $24, DX
	INCQ   CX
	CMPQ   CX, R11
	JLT    p2d_ttap
	VMOVSD X0, (DI)(AX*8)
	VMOVSD X2, (SI)(AX*8)
	INCQ   AX
	JMP    p2d_tail

p2d_done:
	VZEROUPPER
	RET

// func panel1F64(a, wa []float64, rows [][]float64, k3, n int)
TEXT ·panel1F64(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), DI
	MOVQ wa_base+24(FP), R8
	MOVQ rows_base+48(FP), R10
	MOVQ k3+72(FP), R11
	MOVQ n+80(FP), R12
	XORQ AX, AX

p1d_block:
	LEAQ 8(AX), BX
	CMPQ BX, R12
	JGT  p1d_tail
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	XORQ    CX, CX
	MOVQ    R10, DX

p1d_tap:
	MOVQ         (DX), R13
	VBROADCASTSD (R8)(CX*8), Y6
	VMULPD       (R13)(AX*8), Y6, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       32(R13)(AX*8), Y6, Y9
	VADDPD       Y9, Y1, Y1
	ADDQ         $24, DX
	INCQ         CX
	CMPQ         CX, R11
	JLT          p1d_tap
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	MOVQ         BX, AX
	JMP          p1d_block

p1d_tail:
	CMPQ   AX, R12
	JGE    p1d_done
	VMOVSD (DI)(AX*8), X0
	XORQ   CX, CX
	MOVQ   R10, DX

p1d_ttap:
	MOVQ   (DX), R13
	VMOVSD (R13)(AX*8), X4
	VMULSD (R8)(CX*8), X4, X8
	VADDSD X8, X0, X0
	ADDQ   $24, DX
	INCQ   CX
	CMPQ   CX, R11
	JLT    p1d_ttap
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    p1d_tail

p1d_done:
	VZEROUPPER
	RET
