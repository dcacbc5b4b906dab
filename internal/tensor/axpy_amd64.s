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

// The ReLU mask of a finished column block: one bit per lane, set where the
// lane is > +0, ORed into AX at bit sh.
#define MASK4(acc, sh) \
	VCMPPD    $0x1e, Y14, acc, Y9; \
	VMOVMSKPD Y9, DX; \
	SHLQ      $sh, DX; \
	ORQ       DX, AX

// DX = j0, the first column of the block being finished: the row's width
// (R10 / 8) less the columns not yet finished (CX).
#define BLOCKCOL \
	MOVQ R10, DX; \
	SHRQ $3, DX; \
	SUBQ CX, DX

// Puts the block's mask bits, AX from bit 0, at column DX of the mask row
// (R13): from bit DX%32 of word DX/32 on. Blocks go left to right and a
// 32-block fills a word, so a block at bit 0 is its word's first and stores
// it; a later one ORs into it. Uses R12 and keeps CX.
#define MASKPUT \
	MOVQ  CX, R12; \
	MOVQ  DX, CX; \
	SHLL  CX, AX; \
	MOVQ  R12, CX; \
	MOVQ  DX, R12; \
	SHRQ  $5, R12; \
	TESTQ $31, DX; \
	JZ    2(PC); \
	ORL   (R13)(R12*4), AX; \
	MOVL  AX, (R13)(R12*4)

// The accumulate epilogue: acc + out[block], the sum an in-place `out += row`
// makes (addition commutes bit for bit).
#define ADDOUT(off, acc) \
	VADDPD off(DI), acc, acc

// func denseRowAVX2(out, a []float64, stride, k int, b, bias []float64, mask []uint32, add bool)
//
// One output row of a dense product, kept in registers for the whole k loop:
//
//	out[j] = Σ_{i<k} a[i*stride] * b[i*len(out)+j]
//
// summed over ascending i from +0, a term whose a is ±0 skipped, VMULPD then
// VADDPD (never fused) — per element the operations of the zero-fill +
// axpy-per-k loop it replaces, in the same order. With a non-nil bias the row
// leaves as max(out[j]+bias[j], +0), and a non-nil mask gets its ReLU mask:
// bit j%32 of mask[j/32] is set where out[j] > 0, every bit of the row's
// ⌈len(out)/32⌉ words written. With add it leaves as out[j] + the sum,
// accumulated into what out held. No caller asks for both. Columns go in
// blocks of 32 (eight accumulators), then 4, then 1: a 32-block's mask is one
// word, stored; the narrower blocks after it share the last word, which the
// block at its bit 0 stores and the others OR into. The caller guarantees the
// operand lengths.
TEXT ·denseRowAVX2(SB), NOSPLIT, $0-137
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
	JZ   d32add
	BIASRELU(0, Y0)
	BIASRELU(32, Y1)
	BIASRELU(64, Y2)
	BIASRELU(96, Y3)
	BIASRELU(128, Y4)
	BIASRELU(160, Y5)
	BIASRELU(192, Y6)
	BIASRELU(224, Y7)
	ADDQ $256, R11
	MOVQ mask_base+112(FP), R13
	TESTQ R13, R13
	JZ   d32add
	VCMPPD    $0x1e, Y14, Y0, Y9
	VMOVMSKPD Y9, AX
	MASK4(Y1, 4)
	MASK4(Y2, 8)
	MASK4(Y3, 12)
	MASK4(Y4, 16)
	MASK4(Y5, 20)
	MASK4(Y6, 24)
	MASK4(Y7, 28)
	BLOCKCOL
	MASKPUT

d32add:
	CMPB add+136(FP), $0
	JEQ  d32store
	ADDOUT(0, Y0)
	ADDOUT(32, Y1)
	ADDOUT(64, Y2)
	ADDOUT(96, Y3)
	ADDOUT(128, Y4)
	ADDOUT(160, Y5)
	ADDOUT(192, Y6)
	ADDOUT(224, Y7)

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
	JZ   d4add
	BIASRELU(0, Y0)
	ADDQ $32, R11
	MOVQ mask_base+112(FP), R13
	TESTQ R13, R13
	JZ   d4add
	VCMPPD    $0x1e, Y14, Y0, Y9
	VMOVMSKPD Y9, AX
	BLOCKCOL
	MASKPUT

d4add:
	CMPB add+136(FP), $0
	JEQ  d4store
	ADDOUT(0, Y0)

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
	JZ   d1add
	VADDSD (R11), X0, X0
	VMAXSD X14, X0, X0
	ADDQ $8, R11
	MOVQ mask_base+112(FP), R13
	TESTQ R13, R13
	JZ   d1add
	VCMPSD    $0x1e, X14, X0, X9
	VMOVMSKPD X9, AX
	ANDL $1, AX
	BLOCKCOL
	MASKPUT

d1add:
	CMPB add+136(FP), $0
	JEQ  d1store
	VADDSD (DI), X0, X0

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

// relubits holds 1<<i in qword i, i < 32: the bit of a mask word that each
// lane of a 4-entry block tests, block b at offset 32·b.
DATA relubits<>+0(SB)/8, $0x1
DATA relubits<>+8(SB)/8, $0x2
DATA relubits<>+16(SB)/8, $0x4
DATA relubits<>+24(SB)/8, $0x8
DATA relubits<>+32(SB)/8, $0x10
DATA relubits<>+40(SB)/8, $0x20
DATA relubits<>+48(SB)/8, $0x40
DATA relubits<>+56(SB)/8, $0x80
DATA relubits<>+64(SB)/8, $0x100
DATA relubits<>+72(SB)/8, $0x200
DATA relubits<>+80(SB)/8, $0x400
DATA relubits<>+88(SB)/8, $0x800
DATA relubits<>+96(SB)/8, $0x1000
DATA relubits<>+104(SB)/8, $0x2000
DATA relubits<>+112(SB)/8, $0x4000
DATA relubits<>+120(SB)/8, $0x8000
DATA relubits<>+128(SB)/8, $0x10000
DATA relubits<>+136(SB)/8, $0x20000
DATA relubits<>+144(SB)/8, $0x40000
DATA relubits<>+152(SB)/8, $0x80000
DATA relubits<>+160(SB)/8, $0x100000
DATA relubits<>+168(SB)/8, $0x200000
DATA relubits<>+176(SB)/8, $0x400000
DATA relubits<>+184(SB)/8, $0x800000
DATA relubits<>+192(SB)/8, $0x1000000
DATA relubits<>+200(SB)/8, $0x2000000
DATA relubits<>+208(SB)/8, $0x4000000
DATA relubits<>+216(SB)/8, $0x8000000
DATA relubits<>+224(SB)/8, $0x10000000
DATA relubits<>+232(SB)/8, $0x20000000
DATA relubits<>+240(SB)/8, $0x40000000
DATA relubits<>+248(SB)/8, $0x80000000
GLOBL relubits<>(SB), RODATA|NOPTR, $256

// One 4-entry block of a mask word: lanes whose bit of the word (broadcast in
// Y8) is set become all ones, the others zero, and d's entries are ANDed with
// them.
#define ANDMASK4(off) \
	VPAND    relubits<>+off(SB), Y8, Y9; \
	VPCMPEQQ relubits<>+off(SB), Y9, Y9; \
	VANDPD   off(DI), Y9, Y9; \
	VMOVUPD  Y9, off(DI)

// func andMaskAVX2(d []float64, mask []uint32)
//
// d[j] keeps its bits where bit j%32 of mask[j/32] is set and becomes +0
// elsewhere, for the 32·len(mask) entries of d: a ReLU mask applied over rows
// whose words are all full. The caller guarantees len(d) >= 32·len(mask).
TEXT ·andMaskAVX2(SB), NOSPLIT, $0-48
	MOVQ d_base+0(FP), DI
	MOVQ mask_base+24(FP), SI
	MOVQ mask_len+32(FP), CX
	TESTQ CX, CX
	JZ   mdone

mword:
	VPBROADCASTD (SI), Y8
	ANDMASK4(0)
	ANDMASK4(32)
	ANDMASK4(64)
	ANDMASK4(96)
	ANDMASK4(128)
	ANDMASK4(160)
	ANDMASK4(192)
	ANDMASK4(224)
	ADDQ $4, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  mword

mdone:
	VZEROUPPER
	RET
