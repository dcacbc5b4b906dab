#include "textflag.h"

// func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2F64(alpha float64, x, y []float64)
//
// y[i] += alpha * x[i]. Separate VMULPD/VADDPD (no FMA): each lane performs
// exactly the two IEEE operations of the scalar loop, so the result is
// bit-identical to the pure-Go fallback. The caller guarantees
// len(y) == len(x); the element count is taken from y.
TEXT ·axpyAVX2F64(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	VBROADCASTSD alpha+0(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   f64tail

f64loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  f64loop8

f64tail:
	CMPQ AX, CX
	JGE  f64done

f64tailloop:
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	ADDSD (DI)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JLT  f64tailloop

f64done:
	VZEROUPPER
	RET

// One k step of a column block: acc += alpha (Y8/X8) * b[k, block] (at DX),
// the product rounded before the add.
#define MULADD(off, acc) \
	VMULPD off(DX), Y8, Y9; \
	VADDPD acc, Y9, acc

#define MULADD8 \
	MULADD(0, Y0); \
	MULADD(32, Y1); \
	MULADD(64, Y2); \
	MULADD(96, Y3); \
	MULADD(128, Y4); \
	MULADD(160, Y5); \
	MULADD(192, Y6); \
	MULADD(224, Y7)

#define ZERO8 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

#define STORE8 \
	VMOVUPD Y0, 0(DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, 64(DI); \
	VMOVUPD Y3, 96(DI); \
	VMOVUPD Y4, 128(DI); \
	VMOVUPD Y5, 160(DI); \
	VMOVUPD Y6, 192(DI); \
	VMOVUPD Y7, 224(DI)

// max(acc + bias[block], +0). VMAXPD returns its second source (+0 here) when
// both are zero or one is NaN, which is `v > 0 ? v : 0`.
#define BIASRELU(off, acc) \
	VADDPD off(R11), acc, acc; \
	VMAXPD Y14, acc, acc

// func denseRowAVX2(out, a []float64, stride, k int, b, bias []float64)
//
// One output row of a dense product, kept in registers for the whole k loop:
//
//	out[j] = Σ_{i<k} a[i*stride] * b[i*len(out)+j]
//
// summed over ascending i from +0, a term whose a is ±0 skipped, VMULPD then
// VADDPD (never fused) — per element the operations of the zero-fill +
// axpy-per-k loop it replaces, in the same order. With a non-nil bias the row
// leaves as max(out[j]+bias[j], +0). Columns go in blocks of 32 (eight
// accumulators), then 4, then 1. The caller guarantees the operand lengths.
TEXT ·denseRowAVX2(SB), NOSPLIT, $0-112
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ stride+48(FP), R8
	MOVQ k+56(FP), R9
	MOVQ b_base+64(FP), BX
	MOVQ bias_base+88(FP), R11
	SHLQ $3, R8              // a step, bytes
	MOVQ CX, R10
	SHLQ $3, R10             // b row pitch, bytes
	VXORPD Y14, Y14, Y14     // +0: the ReLU floor

d32:
	CMPQ CX, $32
	JLT  d4
	ZERO8
	MOVQ SI, AX
	MOVQ BX, DX
	MOVQ R9, R12
	TESTQ R12, R12
	JZ   d32bias

d32k:
	MOVQ (AX), R13
	ADDQ R13, R13            // drops the sign: zero iff a is ±0, skip
	JZ   d32next
	VBROADCASTSD (AX), Y8
	MULADD8

d32next:
	ADDQ R8, AX
	ADDQ R10, DX
	DECQ R12
	JNZ  d32k

d32bias:
	TESTQ R11, R11
	JZ   d32store
	BIASRELU(0, Y0)
	BIASRELU(32, Y1)
	BIASRELU(64, Y2)
	BIASRELU(96, Y3)
	BIASRELU(128, Y4)
	BIASRELU(160, Y5)
	BIASRELU(192, Y6)
	BIASRELU(224, Y7)
	ADDQ $256, R11

d32store:
	STORE8
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, CX
	JMP  d32

d4:
	CMPQ CX, $4
	JLT  d1
	VXORPD Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ BX, DX
	MOVQ R9, R12
	TESTQ R12, R12
	JZ   d4bias

d4k:
	MOVQ (AX), R13
	ADDQ R13, R13
	JZ   d4next
	VBROADCASTSD (AX), Y8
	MULADD(0, Y0)

d4next:
	ADDQ R8, AX
	ADDQ R10, DX
	DECQ R12
	JNZ  d4k

d4bias:
	TESTQ R11, R11
	JZ   d4store
	BIASRELU(0, Y0)
	ADDQ $32, R11

d4store:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  d4

d1:
	TESTQ CX, CX
	JZ   ddone
	VXORPD X0, X0, X0
	MOVQ SI, AX
	MOVQ BX, DX
	MOVQ R9, R12
	TESTQ R12, R12
	JZ   d1bias

d1k:
	MOVQ (AX), R13
	ADDQ R13, R13            // drops the sign: zero iff a is ±0
	JZ   d1next
	VMOVSD (AX), X8
	VMULSD (DX), X8, X9
	VADDSD X0, X9, X0

d1next:
	ADDQ R8, AX
	ADDQ R10, DX
	DECQ R12
	JNZ  d1k

d1bias:
	TESTQ R11, R11
	JZ   d1store
	VADDSD (R11), X0, X0
	VMAXSD X14, X0, X0
	ADDQ $8, R11

d1store:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ CX
	JMP  d1

ddone:
	VZEROUPPER
	RET

// func csrRowAVX2(out, val []float64, col []int, d []float64)
//
// The CSR sibling of denseRowAVX2: out[j] = Σ_i val[i] * d[col[i]*len(out)+j]
// over ascending i from +0, no zero skip (stored values are nonzeros), no
// epilogue. The caller guarantees len(col) == len(val) and every col in range.
TEXT ·csrRowAVX2(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ val_base+24(FP), SI
	MOVQ val_len+32(FP), R9
	MOVQ col_base+48(FP), R8
	MOVQ d_base+72(FP), BX
	MOVQ CX, R10
	SHLQ $3, R10             // d row pitch, bytes

c32:
	CMPQ CX, $32
	JLT  c4
	ZERO8
	XORQ AX, AX
	JMP  c32test

c32k:
	MOVQ (R8)(AX*8), DX
	IMULQ R10, DX
	ADDQ BX, DX
	VBROADCASTSD (SI)(AX*8), Y8
	MULADD8
	INCQ AX

c32test:
	CMPQ AX, R9
	JLT  c32k
	STORE8
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, CX
	JMP  c32

c4:
	CMPQ CX, $4
	JLT  c1
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	JMP  c4test

c4k:
	MOVQ (R8)(AX*8), DX
	IMULQ R10, DX
	ADDQ BX, DX
	VBROADCASTSD (SI)(AX*8), Y8
	MULADD(0, Y0)
	INCQ AX

c4test:
	CMPQ AX, R9
	JLT  c4k
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  c4

c1:
	TESTQ CX, CX
	JZ   cdone
	VXORPD X0, X0, X0
	XORQ AX, AX
	JMP  c1test

c1k:
	MOVQ (R8)(AX*8), DX
	IMULQ R10, DX
	ADDQ BX, DX
	VMOVSD (SI)(AX*8), X8
	VMULSD (DX), X8, X9
	VADDSD X0, X9, X0
	INCQ AX

c1test:
	CMPQ AX, R9
	JLT  c1k
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ CX
	JMP  c1

cdone:
	VZEROUPPER
	RET
