//go:build !purego

#include "textflag.h"

// func scanOffsets(deltas, net, cost, imb, lo, hi []float64, costPerKWh float64)
//
// Offsets k and k+1 go through the packed loop together: lane 0 of each
// register holds offset k, lane 1 offset k+1, and slice j reads the
// adjacent slots k+j and k+j+1 with one MOVUPD. An odd last offset goes
// through the same steps on lane 0 alone, so no load reaches past the
// last slot. Each step is the scalar body's, in its order:
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
// alike. Registers: DI deltas, CX offsets, SI net, R8 cost, R9 imb,
// R10 lo, R11 hi, DX slices, BX offset k, AX slot k+j, R12 slice j;
// X0 delta, X1 act, X12 abs mask, X13 costPerKWh, X14 sign mask.
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
