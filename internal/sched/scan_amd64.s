//go:build !purego

#include "textflag.h"

// KEEPUPPER merges a second candidate (best HB, offset HI, activation
// HA) into the running one (X8 best, X9 offset, X10 activation), lane
// by lane: the candidate wins when its delta is lower, or equal with a
// lower offset, so of equal deltas the lowest offset is kept: X5 is
// (delta below) | (delta equal & offset below), and each register
// takes the candidate's bits through the mask (x ^= (x^y) & mask).
// X6 and X7 are scratch; HB, HI and HA are clobbered. A running best
// is never NaN: it starts at +Inf and only a delta below it replaces
// it, so the equality test is exact.
#define KEEPUPPER(HB, HI, HA) \
	MOVAPD HB, X5     \
	CMPPD  X8, X5, $1 \
	MOVAPD HB, X6     \
	CMPPD  X8, X6, $0 \
	MOVAPD HI, X7     \
	CMPPD  X9, X7, $1 \
	ANDPD  X7, X6     \
	ORPD   X6, X5     \
	XORPD  X8, HB     \
	ANDPD  X5, HB     \
	XORPD  HB, X8     \
	XORPD  X9, HI     \
	ANDPD  X5, HI     \
	XORPD  HI, X9     \
	XORPD  X10, HA    \
	ANDPD  X5, HA     \
	XORPD  HA, X10

// KEEPBELOW takes, in the lanes where the mask X5 is set, the offset
// just priced: delta X0, offset X11, activation X1. X0 and X1 are
// clobbered, X7 is scratch.
#define KEEPBELOW \
	XORPD  X8, X0  \
	ANDPD  X5, X0  \
	XORPD  X0, X8  \
	MOVAPD X11, X7 \
	XORPD  X9, X7  \
	ANDPD  X5, X7  \
	XORPD  X7, X9  \
	XORPD  X10, X1 \
	ANDPD  X5, X1  \
	XORPD  X1, X10

// func placeOffer(net, cost, imb, lo, hi, energy []float64, costPerKWh float64) (off int, act float64)
//
// Three passes in one call: price every start offset, keep the first
// strict minimum, place the offer there.
//
// Pricing: with AVX (useAVX), offsets k..k+3 go through the quad loop
// together: lane i of each Y register holds offset k+i, and slice j
// reads the adjacent slots k+j..k+j+3 with one VMOVUPD. Fewer than four
// offsets left fall through, after a VZEROUPPER, to the SSE2 pair loop
// (lanes k, k+1, one MOVUPD), and an odd last offset goes through the
// same steps on lane 0 alone, so no load reaches past the last slot.
// Without AVX the pair and single loops price every offset. Each step
// is the scalar body's, in its order:
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
// the quad loops pass the bound as the first source and e as the
// second; every other VEX step keeps the SSE2 step's first operand
// first (imb is loaded before VMULPD, as before MULPD), and nothing is
// fused.
//
// Picking: each lane keeps its running best (X8/Y8, +Inf at first),
// that best's offset as a float (X9/Y9) and its activation sum before
// the price per kWh (X10/Y10). A lane takes an offset only when its
// delta is strictly below the lane's best, so a NaN or +Inf delta never
// wins and a lane keeps the first of equal deltas. The quad lanes merge
// pairwise into the pair lanes (KEEPUPPER) before the pair loop and
// those into lane 0 before the single offset; every offset priced after
// a merge is above every offset merged, so strict < keeps the first
// minimum in offset order. When no delta is below +Inf, offset 0 wins
// with best offset 0, as the scalar loop's bestOff := 0; its activation
// is saved from offset 0's pricing in R13, whichever loop priced it.
//
// Placing: the winner's slices are independent, so four (AVX), two and
// one go per step: energy[j] = e, net += e, cost = imb·|net|, the same
// steps as pricing on the same inputs. Registers: CX offsets, SI net,
// R8 cost, R9 imb, R10 lo, R11 hi, DI energy, DX slices, BX offset k,
// AX slot k+j, R12 slice j, R13 offset 0's activation; X0/Y0 delta,
// X1/Y1 act, X11/Y11 the lanes' offsets, X15/Y15 the offset step,
// X12/Y12 abs mask, X13/Y13 costPerKWh, X14/Y14 sign mask.
TEXT ·placeOffer(SB), NOSPLIT, $0-168
	MOVQ  net_base+0(FP), SI
	MOVQ  net_len+8(FP), CX
	MOVQ  cost_base+24(FP), R8
	MOVQ  imb_base+48(FP), R9
	MOVQ  lo_base+72(FP), R10
	MOVQ  lo_len+80(FP), DX
	MOVQ  hi_base+96(FP), R11
	MOVQ  energy_base+120(FP), DI
	MOVSD costPerKWh+144(FP), X13
	SUBQ  DX, CX
	INCQ  CX
	UNPCKLPD X13, X13
	MOVQ  $0x8000000000000000, AX
	MOVQ  AX, X14
	UNPCKLPD X14, X14
	NOTQ  AX
	MOVQ  AX, X12
	UNPCKLPD X12, X12
	MOVQ  $0x7ff0000000000000, AX // +Inf
	MOVQ  AX, X8
	UNPCKLPD X8, X8
	XORPD X9, X9
	XORPD X10, X10
	MOVQ  $0x3ff0000000000000, AX // 1.0
	MOVQ  AX, X5
	XORPD X11, X11
	UNPCKLPD X5, X11              // offsets 0, 1
	MOVQ  $0x4000000000000000, AX // 2.0
	MOVQ  AX, X15
	UNPCKLPD X15, X15
	XORQ  R13, R13
	XORQ  BX, BX
	CMPB  ·useAVX(SB), $0
	JEQ   pair
	VINSERTF128 $1, X12, Y12, Y12
	VINSERTF128 $1, X13, Y13, Y13
	VINSERTF128 $1, X14, Y14, Y14
	VINSERTF128 $1, X8, Y8, Y8
	VXORPD      Y9, Y9, Y9
	VXORPD      Y10, Y10, Y10
	VADDPD      X15, X11, X6
	VINSERTF128 $1, X6, Y11, Y11 // offsets 0..3
	VADDPD      X15, X15, X7
	VINSERTF128 $1, X7, Y7, Y15  // step 4

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
	CMPQ      R12, DX
	JLT       quadslice
	TESTQ     BX, BX
	JNE       quadpick
	VMOVQ     X1, R13
quadpick:
	VMULPD    Y13, Y1, Y6
	VADDPD    Y6, Y0, Y0        // delta
	VCMPPD    $1, Y8, Y0, Y7    // delta < best
	VBLENDVPD Y7, Y0, Y8, Y8
	VBLENDVPD Y7, Y11, Y9, Y9
	VBLENDVPD Y7, Y1, Y10, Y10
	VADDPD    Y15, Y11, Y11
	ADDQ      $4, BX
	JMP       quad

quaddone:
	VEXTRACTF128 $1, Y8, X2
	VEXTRACTF128 $1, Y9, X3
	VEXTRACTF128 $1, Y10, X4
	VZEROUPPER
	KEEPUPPER(X2, X3, X4)
	MOVQ     $0x4000000000000000, AX
	MOVQ     AX, X15
	UNPCKLPD X15, X15 // step 2

pair:
	LEAQ  1(BX), AX
	CMPQ  AX, CX
	JGE   pairdone
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
	TESTQ  BX, BX
	JNE    pairpick
	MOVQ   X1, R13
pairpick:
	MOVAPD X1, X6
	MULPD  X13, X6
	ADDPD  X6, X0       // delta
	MOVAPD X0, X5
	CMPPD  X8, X5, $1   // delta < best
	KEEPBELOW
	ADDPD  X15, X11
	ADDQ   $2, BX
	JMP    pair

pairdone:
	MOVHLPS X8, X2
	MOVHLPS X9, X3
	MOVHLPS X10, X4
	KEEPUPPER(X2, X3, X4)

single:
	CMPQ  BX, CX
	JGE   pick
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
	CMPQ   R12, DX
	JLT    singleslice
	TESTQ  BX, BX
	JNE    singlepick
	MOVQ   X1, R13
singlepick:
	MOVAPD X1, X6
	MULSD  X13, X6
	ADDSD  X6, X0       // delta
	MOVAPD X0, X5
	CMPSD  X8, X5, $1   // delta < best
	KEEPBELOW

pick:
	CVTTSD2SQ X9, BX
	TESTQ     BX, BX
	JNE       place
	MOVQ      R13, X10 // offset 0's activation, whether or not it won a compare

place:
	MOVQ  BX, off+152(FP)
	MOVSD X10, act+160(FP)
	LEAQ  (SI)(BX*8), SI
	LEAQ  (R8)(BX*8), R8
	LEAQ  (R9)(BX*8), R9
	XORQ  R12, R12
	CMPB  ·useAVX(SB), $0
	JEQ   placepair
	VINSERTF128 $1, X12, Y12, Y12
	VINSERTF128 $1, X14, Y14, Y14

placequad:
	LEAQ    3(R12), AX
	CMPQ    AX, DX
	JGE     placequaddone
	VMOVUPD (SI)(R12*8), Y4 // net
	VXORPD  Y14, Y4, Y5     // e = -net
	VMOVUPD (R10)(R12*8), Y2
	VMAXPD  Y5, Y2, Y2
	VMOVUPD (R11)(R12*8), Y3
	VMINPD  Y2, Y3, Y3
	VMOVUPD Y3, (DI)(R12*8) // energy
	VADDPD  Y3, Y4, Y4      // net + e
	VMOVUPD Y4, (SI)(R12*8)
	VANDPD  Y12, Y4, Y4
	VMOVUPD (R9)(R12*8), Y6
	VMULPD  Y4, Y6, Y6      // imb·|net+e|
	VMOVUPD Y6, (R8)(R12*8)
	ADDQ    $4, R12
	JMP     placequad

placequaddone:
	VZEROUPPER

placepair:
	LEAQ   1(R12), AX
	CMPQ   AX, DX
	JGE    placesingle
	MOVUPD (SI)(R12*8), X4
	MOVAPD X4, X5
	XORPD  X14, X5
	MOVUPD (R10)(R12*8), X2
	MAXPD  X5, X2
	MOVUPD (R11)(R12*8), X3
	MINPD  X2, X3
	MOVUPD X3, (DI)(R12*8)
	ADDPD  X3, X4
	MOVUPD X4, (SI)(R12*8)
	ANDPD  X12, X4
	MOVUPD (R9)(R12*8), X6
	MULPD  X4, X6
	MOVUPD X6, (R8)(R12*8)
	ADDQ   $2, R12
	JMP    placepair

placesingle:
	CMPQ   R12, DX
	JGE    done
	MOVSD  (SI)(R12*8), X4
	MOVAPD X4, X5
	XORPD  X14, X5
	MOVSD  (R10)(R12*8), X2
	MAXSD  X5, X2
	MOVSD  (R11)(R12*8), X3
	MINSD  X2, X3
	MOVSD  X3, (DI)(R12*8)
	ADDSD  X3, X4
	MOVSD  X4, (SI)(R12*8)
	ANDPD  X12, X4
	MOVSD  (R9)(R12*8), X6
	MULSD  X4, X6
	MOVSD  X6, (R8)(R12*8)

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
