//go:build !purego

#include "textflag.h"

// func scanOffsets(deltas, net, cost, imb, lo, hi []float64, costPerKWh float64)
//
// With AVX (useAVX), offsets k..k+3 go through the quad loop together:
// lane i of each Y register holds offset k+i, and slice j reads the
// adjacent slots k+j..k+j+3 with one VMOVUPD. Fewer than four offsets
// left fall through, after a VZEROUPPER, to the SSE2 pair loop (lanes
// k, k+1, one MOVUPD), and an odd last offset goes through the same
// steps on lane 0 alone, so no load reaches past the last slot. Without
// AVX the pair and single loops price every offset. Each step is the
// scalar body's, in its order:
//
//	e = -net                  XORPD sign mask
//	if e < lo[j] { e = lo }   MAXPD e, lo: lo only when lo > e
//	if e > hi[j] { e = hi }   MINPD e, hi: hi only when hi < e
//	delta += imb·|net+e| − cost
//	act += |e|                ANDPD abs mask
//	delta += act·costPerKWh
//
// MAXPD and MINPD return their source operand (e) on equal operands
// and on a NaN, as the scalar comparisons keep e, so ±0 and NaN clamp
// alike. Their VEX forms return the second source in those cases, so
// the quad loop passes the bound as the first source and e as the
// second; every other VEX step keeps the SSE2 step's first operand
// first (imb is loaded before VMULPD, as before MULPD), and nothing is
// fused. Registers: DI deltas, CX offsets, SI net, R8 cost, R9 imb,
// R10 lo, R11 hi, DX slices, BX offset k, AX slot k+j, R12 slice j;
// X0/Y0 delta, X1/Y1 act, X12/Y12 abs mask, X13/Y13 costPerKWh,
// X14/Y14 sign mask.
TEXT ·scanOffsets(SB), NOSPLIT, $0-152
	MOVQ  deltas_base+0(FP), DI
	MOVQ  deltas_len+8(FP), CX
	MOVQ  net_base+24(FP), SI
	MOVQ  cost_base+48(FP), R8
	MOVQ  imb_base+72(FP), R9
	MOVQ  lo_base+96(FP), R10
	MOVQ  lo_len+104(FP), DX
	MOVQ  hi_base+120(FP), R11
	MOVSD costPerKWh+144(FP), X13
	UNPCKLPD X13, X13
	MOVQ  $0x8000000000000000, AX
	MOVQ  AX, X14
	UNPCKLPD X14, X14
	NOTQ  AX
	MOVQ  AX, X12
	UNPCKLPD X12, X12
	XORQ  BX, BX
	CMPB  ·useAVX(SB), $0
	JEQ   pair
	VINSERTF128 $1, X12, Y12, Y12
	VINSERTF128 $1, X13, Y13, Y13
	VINSERTF128 $1, X14, Y14, Y14

quad:
	LEAQ   3(BX), AX
	CMPQ   AX, CX
	JGE    quaddone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   BX, AX
	XORQ   R12, R12
	JMP    quadnext

quadslice:
	VMOVUPD      (SI)(AX*8), Y4 // net
	VXORPD       Y14, Y4, Y5    // e = -net
	VBROADCASTSD (R10)(R12*8), Y2
	VMAXPD       Y5, Y2, Y2     // e clamped from below: lo only when lo > e
	VBROADCASTSD (R11)(R12*8), Y3
	VMINPD       Y2, Y3, Y3     // e clamped from above: hi only when hi < e
	VADDPD       Y3, Y4, Y4     // net + e
	VANDPD       Y12, Y4, Y4
	VMOVUPD      (R9)(AX*8), Y6
	VMULPD       Y4, Y6, Y6     // imb·|net+e|
	VSUBPD       (R8)(AX*8), Y6, Y6 // − cost
	VADDPD       Y6, Y0, Y0
	VANDPD       Y12, Y3, Y3
	VADDPD       Y3, Y1, Y1
	INCQ         AX
	INCQ         R12

quadnext:
	CMPQ    R12, DX
	JLT     quadslice
	VMULPD  Y13, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     quad

quaddone:
	VZEROUPPER

pair:
	LEAQ  1(BX), AX
	CMPQ  AX, CX
	JGE   single
	XORPD X0, X0
	XORPD X1, X1
	MOVQ  BX, AX
	XORQ  R12, R12
	JMP   pairnext

pairslice:
	MOVUPD   (SI)(AX*8), X4 // net
	MOVAPD   X4, X5
	XORPD    X14, X5        // e = -net
	MOVSD    (R10)(R12*8), X2
	UNPCKLPD X2, X2
	MAXPD    X5, X2         // e clamped from below, in X2
	MOVSD    (R11)(R12*8), X3
	UNPCKLPD X3, X3
	MINPD    X2, X3         // e clamped from above, in X3
	ADDPD    X3, X4         // net + e
	ANDPD    X12, X4
	MOVUPD   (R9)(AX*8), X6
	MULPD    X4, X6         // imb·|net+e|
	MOVUPD   (R8)(AX*8), X7
	SUBPD    X7, X6         // − cost
	ADDPD    X6, X0
	ANDPD    X12, X3
	ADDPD    X3, X1
	INCQ     AX
	INCQ     R12

pairnext:
	CMPQ   R12, DX
	JLT    pairslice
	MULPD  X13, X1
	ADDPD  X1, X0
	MOVUPD X0, (DI)(BX*8)
	ADDQ   $2, BX
	JMP    pair

single:
	CMPQ  BX, CX
	JGE   done
	XORPD X0, X0
	XORPD X1, X1
	MOVQ  BX, AX
	XORQ  R12, R12
	JMP   singlenext

singleslice:
	MOVSD (SI)(AX*8), X4
	MOVAPD X4, X5
	XORPD X14, X5
	MOVSD (R10)(R12*8), X2
	MAXSD X5, X2
	MOVSD (R11)(R12*8), X3
	MINSD X2, X3
	ADDSD X3, X4
	ANDPD X12, X4
	MOVSD (R9)(AX*8), X6
	MULSD X4, X6
	MOVSD (R8)(AX*8), X7
	SUBSD X7, X6
	ADDSD X6, X0
	ANDPD X12, X3
	ADDSD X3, X1
	INCQ  AX
	INCQ  R12

singlenext:
	CMPQ  R12, DX
	JLT   singleslice
	MULSD X13, X1
	ADDSD X1, X0
	MOVSD X0, (DI)(BX*8)

done:
	RET

// func cpuid1() (ecx uint32)
TEXT ·cpuid1(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ecx+0(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
