//go:build amd64 && !purego

#include "textflag.h"

// The register-panel forward conv kernels. Every output lane runs the
// exact chain of the generic Go code, s = s + w[j]·x for j = 0, 1, …,
// k3-1, where x is taps[j][i] ANDed with the lane mask masks[j][i] (all
// ones, or zero where the tap's flat shift wrapped): one VANDPD selects
// the lane, one VMULPD rounds the product, one VADDPD rounds the sum. No
// FMA, no reassociation. convFwdTileAVX2 in kernel_amd64.go checks every
// slice bound and guarantees k3 ≥ 1, n ≥ 1.
//
// panel2F64 takes blocks of 16 positions (four YMM accumulators per
// output, so eight independent add chains hide the VADDPD latency and
// each tap's header, mask-header and weight loads serve 16 positions),
// then at most one block of 8, then single positions. panel1F64 takes
// blocks of 8, then single positions.
//
// Register use, both kernels:
//	DI, SI  output panels a, b     R8, R9  weight rows wa, wb
//	R10     &taps[0] (24-byte slice headers; data pointer at +0)
//	R14     &masks[0] − &taps[0], so (DX)(R14*1) is masks[j]'s header
//	R11     k3                     R12     n
//	AX      position i             CX      tap j
//	DX      &taps[j]               R13     taps[j] data
//	BX      i + block width, then masks[j] data inside the tap loop

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

// func panel2F64(a, b, wa, wb []float64, taps [][]float64, masks [][]uint64, k3, n int)
TEXT ·panel2F64(SB), NOSPLIT, $0-160
	MOVQ a_base+0(FP), DI
	MOVQ b_base+24(FP), SI
	MOVQ wa_base+48(FP), R8
	MOVQ wb_base+72(FP), R9
	MOVQ taps_base+96(FP), R10
	MOVQ masks_base+120(FP), R14
	SUBQ R10, R14
	MOVQ k3+144(FP), R11
	MOVQ n+152(FP), R12
	XORQ AX, AX

p2d_block16:
	LEAQ 16(AX), BX
	CMPQ BX, R12
	JGT  p2d_block
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	XORQ    CX, CX
	MOVQ    R10, DX

p2d_tap16:
	MOVQ         (DX), R13
	MOVQ         (DX)(R14*1), BX
	VMOVUPD      (R13)(AX*8), Y8
	VMOVUPD      32(R13)(AX*8), Y9
	VMOVUPD      64(R13)(AX*8), Y10
	VMOVUPD      96(R13)(AX*8), Y11
	VANDPD       (BX)(AX*8), Y8, Y8
	VANDPD       32(BX)(AX*8), Y9, Y9
	VANDPD       64(BX)(AX*8), Y10, Y10
	VANDPD       96(BX)(AX*8), Y11, Y11
	VBROADCASTSD (R8)(CX*8), Y12
	VBROADCASTSD (R9)(CX*8), Y13
	VMULPD       Y8, Y12, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y9, Y12, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y10, Y12, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y11, Y12, Y15
	VADDPD       Y15, Y3, Y3
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       Y10, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y11, Y13, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         $24, DX
	INCQ         CX
	CMPQ         CX, R11
	JLT          p2d_tap16
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, 64(DI)(AX*8)
	VMOVUPD      Y3, 96(DI)(AX*8)
	VMOVUPD      Y4, (SI)(AX*8)
	VMOVUPD      Y5, 32(SI)(AX*8)
	VMOVUPD      Y6, 64(SI)(AX*8)
	VMOVUPD      Y7, 96(SI)(AX*8)
	ADDQ         $16, AX
	JMP          p2d_block16

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
	MOVQ         (DX)(R14*1), BX
	VMOVUPD      (R13)(AX*8), Y4
	VMOVUPD      32(R13)(AX*8), Y5
	VANDPD       (BX)(AX*8), Y4, Y4
	VANDPD       32(BX)(AX*8), Y5, Y5
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
	ADDQ         $8, AX
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
	MOVQ   (DX)(R14*1), BX
	VMOVSD (R13)(AX*8), X4
	VMOVSD (BX)(AX*8), X5
	VANDPD X5, X4, X4
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

// func panel1F64(a, wa []float64, taps [][]float64, masks [][]uint64, k3, n int)
TEXT ·panel1F64(SB), NOSPLIT, $0-112
	MOVQ a_base+0(FP), DI
	MOVQ wa_base+24(FP), R8
	MOVQ taps_base+48(FP), R10
	MOVQ masks_base+72(FP), R14
	SUBQ R10, R14
	MOVQ k3+96(FP), R11
	MOVQ n+104(FP), R12
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
	MOVQ         (DX)(R14*1), BX
	VMOVUPD      (R13)(AX*8), Y4
	VMOVUPD      32(R13)(AX*8), Y5
	VANDPD       (BX)(AX*8), Y4, Y4
	VANDPD       32(BX)(AX*8), Y5, Y5
	VBROADCASTSD (R8)(CX*8), Y6
	VMULPD       Y4, Y6, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y5, Y6, Y9
	VADDPD       Y9, Y1, Y1
	ADDQ         $24, DX
	INCQ         CX
	CMPQ         CX, R11
	JLT          p1d_tap
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	ADDQ         $8, AX
	JMP          p1d_block

p1d_tail:
	CMPQ   AX, R12
	JGE    p1d_done
	VMOVSD (DI)(AX*8), X0
	XORQ   CX, CX
	MOVQ   R10, DX

p1d_ttap:
	MOVQ   (DX), R13
	MOVQ   (DX)(R14*1), BX
	VMOVSD (R13)(AX*8), X4
	VMOVSD (BX)(AX*8), X5
	VANDPD X5, X4, X4
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
