// The lane block (quad in chip_amd64.go): one 32-byte row of four lanes
// per field.
#define QX 0
#define QY 32
#define QZ 64
#define QVX 96
#define QVY 128
#define QVZ 160
#define QSELF 192
#define QSCA 224
#define QSCJ 256
#define QSCP 288
#define QSUM0 320
#define QSUM1 352
#define QSUM2 384
#define QSUM3 416
#define QSUM4 448
#define QSUM5 480
#define QSUM6 512
#define QNND2 544
#define QNN 576
#define QE2 608
#define QINVPOS 640
#define QONE 672
#define QTHREE 704
#define QSIGMA 736
#define QMAGIC 768
#define QMAGICMISS 800
#define QSUMBIAS 832
#define QSUMMISS 864
#define QTAMELO 896
#define QTAMEMISS 928
#define QPX0 960
#define QPX1 968
#define QPX2 976
#define QPV0 984
#define QPV1 992
#define QPV2 1000
#define QMASS 1008
#define QID 1016

// The frame holds two stage buffers, one a slot's first half writes and
// one the previous slot's second half reads (R14 and AX point at them and
// swap each slot), and the seven quantised contributions the sums took,
// kept to undo them when the slot misses. A stage buffer holds the rounded
// differences, r2, rinv2, mrinv, mrinv3 and the first half's miss word.
#define BDX 0
#define BDY 32
#define BDZ 64
#define BDVX 96
#define BDVY 128
#define BDVZ 160
#define BR2 192
#define BRINV2 224
#define BMRINV 256
#define BMRINV3 288
#define BMISS 320
#define BUF1 352
#define FQ0 704(SP)
#define FQ1 736(SP)
#define FQ2 768(SP)
#define FQ3 800(SP)
#define FQ4 832(SP)
#define FQ5 864(SP)
#define FQ6 896(SP)

// x = RoundTame(x): c = x·σ, x = c − (c − x). c and d are scratch.
#define ROUND(x, c, d) \
	VMULPD QSIGMA(DI), x, c; \
	VSUBPD x, c, d; \
	VSUBPD d, c, x

// Y8 |= Untame(x) ≠ 0 as a nonzero lane: u = bits(x)·2, and a lane misses
// iff u ≠ 0 and (u − TameLo) has a bit under TameMiss. Y15 must be zero;
// u and z are scratch.
#define UNTAME(x, u, z) \
	VPADDQ   x, x, u; \
	VPCMPEQQ Y15, u, z; \
	VPSUBQ   QTAMELO(DI), u, u; \
	VPANDN   u, z, u; \
	VPAND    QTAMEMISS(DI), u, u; \
	VPOR     u, Y8, Y8

// The integer half of AddTame, from t = bits(v·scale + Magic): Y7 collects
// t XOR bits(Magic) for the MagicMiss test, the quantised contribution
// t − bits(Magic) goes to the frame slot q and into sum. tmp is scratch.
#define ADDT(sum, t, q, tmp) \
	VPXOR   QMAGIC(DI), t, tmp; \
	VPOR    tmp, Y7, Y7; \
	VPSUBQ  QMAGIC(DI), t, t; \
	VMOVDQU t, q; \
	VPADDQ  t, sum, sum

// AddTame(sum, v, scale) with v in a register (overwritten).
#define ADDTAME(sum, v, scale, q, tmp) \
	VMULPD scale(DI), v, v; \
	VADDPD QMAGIC(DI), v, v; \
	ADDT(sum, v, q, tmp)

// func tileAVX2(q *quad, k, n int) int
//
// forceTile's run for four i-particles at once, lane l of every Y register
// being i-particle l, from slot k of q's planes towards n. Every lane runs
// forcePair's operations on the same operands in the same order, on
// gfixed's tame forms (RoundTame, AddTame, Untame) as gfixed.Lanes writes
// them. Each run-ending condition of forceTile, and the conversion's own
// guard, ORs into one miss word per slot: the MagicMiss terms (three
// coordinate conversions, seven quantisations), the lanes with r2 ≤ 0 or
// an untame mass or raw velocity difference, and the seven new sums under
// SumMiss. A slot whose miss word is zero commits its seven sums in Y0-Y6
// and its nearest neighbour; at the first that is not, the sums are
// restored from the contributions kept in the frame and the slot is
// returned, for forcePair to evaluate. n is returned when every slot ran.
//
// A slot is evaluated in two halves, software-pipelined: an iteration runs
// the first half of slot j (stages 1-3, up to mrinv3, and the miss word of
// the guards) and then the second half of slot j-1 (stages 4-5, the sums'
// miss word, the commit and the nearest neighbour). The two share no
// operand, so the processor overlaps one slot's long chain of roundings,
// square root and divide with the other's. Only the second half changes
// anything, in slot order. Y7-Y15 are temporaries. Only VEX-encoded
// instructions touch an X or Y register: a legacy SSE one costs an AVX-SSE
// transition per slot.
TEXT ·tileAVX2(SB), $928-32
	MOVQ q+0(FP), DI
	MOVQ k+8(FP), CX
	MOVQ n+16(FP), DX
	MOVQ QPX0(DI), R8
	MOVQ QPX1(DI), R9
	MOVQ QPX2(DI), R10
	MOVQ QPV0(DI), R11
	MOVQ QPV1(DI), R12
	MOVQ QPV2(DI), R13
	MOVQ QMASS(DI), SI
	MOVQ QID(DI), BX
	VMOVDQU QSUM0(DI), Y0
	VMOVDQU QSUM1(DI), Y1
	VMOVDQU QSUM2(DI), Y2
	VMOVDQU QSUM3(DI), Y3
	VMOVDQU QSUM4(DI), Y4
	VMOVDQU QSUM5(DI), Y5
	VMOVDQU QSUM6(DI), Y6
	MOVQ    CX, R15      // slot k has no second half before it
	LEAQ    0(SP), R14   // the previous slot's stage buffer
	LEAQ    BUF1(SP), AX // this slot's
	CMPQ    CX, DX
	JGE     done

loop:
	// CX is slot j: its first half if j < n, then slot j-1's second half
	// if j > k.
	CMPQ CX, DX
	JGE  second

	// Stage 1: the coordinate difference, exact in int64, to float64 as
	// bits(Magic + d) − Magic (exact for |d| < 2^51, else a miss), times
	// 2^-PosFrac (exact), rounded. Y7 collects the MagicMiss terms.
	VPBROADCASTQ (R8)(CX*8), Y9
	VPSUBQ       QX(DI), Y9, Y9
	VPADDQ       QMAGIC(DI), Y9, Y9
	VPXOR        QMAGIC(DI), Y9, Y7
	VSUBPD       QMAGIC(DI), Y9, Y9
	VMULPD       QINVPOS(DI), Y9, Y9
	ROUND(Y9, Y13, Y14)
	VMOVUPD      Y9, BDX(AX)
	VPBROADCASTQ (R9)(CX*8), Y10
	VPSUBQ       QY(DI), Y10, Y10
	VPADDQ       QMAGIC(DI), Y10, Y10
	VPXOR        QMAGIC(DI), Y10, Y13
	VPOR         Y13, Y7, Y7
	VSUBPD       QMAGIC(DI), Y10, Y10
	VMULPD       QINVPOS(DI), Y10, Y10
	ROUND(Y10, Y13, Y14)
	VMOVUPD      Y10, BDY(AX)
	VPBROADCASTQ (R10)(CX*8), Y11
	VPSUBQ       QZ(DI), Y11, Y11
	VPADDQ       QMAGIC(DI), Y11, Y11
	VPXOR        QMAGIC(DI), Y11, Y13
	VPOR         Y13, Y7, Y7
	VSUBPD       QMAGIC(DI), Y11, Y11
	VMULPD       QINVPOS(DI), Y11, Y11
	ROUND(Y11, Y13, Y14)
	VMOVUPD      Y11, BDZ(AX)

	// Stage 2: r2 (Y12) = ((dx·dx + dy·dy) + dz·dz) + e2, rounded; r2 ≤ 0
	// misses. Y8 collects the lanes that miss outright.
	VMULPD  Y9, Y9, Y12
	VMULPD  Y10, Y10, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y11, Y13
	VADDPD  Y13, Y12, Y12
	VADDPD  QE2(DI), Y12, Y12
	ROUND(Y12, Y13, Y14)
	VMOVUPD Y12, BR2(AX)
	VXORPD  Y15, Y15, Y15
	VCMPPD  $0x12, Y15, Y12, Y8 // LE_OQ

	// The guard on the free inputs: the mass (kept in Y9) and the raw
	// velocity differences, each then rounded.
	VBROADCASTSD (SI)(CX*8), Y9
	UNTAME(Y9, Y13, Y14)
	VBROADCASTSD (R11)(CX*8), Y10
	VSUBPD       QVX(DI), Y10, Y10
	UNTAME(Y10, Y13, Y14)
	ROUND(Y10, Y13, Y14)
	VMOVUPD      Y10, BDVX(AX)
	VBROADCASTSD (R12)(CX*8), Y10
	VSUBPD       QVY(DI), Y10, Y10
	UNTAME(Y10, Y13, Y14)
	ROUND(Y10, Y13, Y14)
	VMOVUPD      Y10, BDVY(AX)
	VBROADCASTSD (R13)(CX*8), Y10
	VSUBPD       QVZ(DI), Y10, Y10
	UNTAME(Y10, Y13, Y14)
	ROUND(Y10, Y13, Y14)
	VMOVUPD      Y10, BDVZ(AX)

	// Stage 3: rinv = 1/sqrt(r2), rinv2, mrinv, mrinv3. Every term of the
	// miss word so far has a bit in the top twelve, which MagicMiss keeps.
	VSQRTPD Y12, Y10
	VMOVUPD QONE(DI), Y11
	VDIVPD  Y10, Y11, Y10
	ROUND(Y10, Y13, Y14)
	VMULPD  Y10, Y10, Y11
	ROUND(Y11, Y13, Y14)
	VMOVUPD Y11, BRINV2(AX)
	VMULPD  Y10, Y9, Y9
	ROUND(Y9, Y13, Y14)
	VMOVUPD Y9, BMRINV(AX)
	VMULPD  Y11, Y9, Y10
	ROUND(Y10, Y13, Y14)
	VMOVUPD Y10, BMRINV3(AX)
	VPOR    Y8, Y7, Y7
	VMOVDQU Y7, BMISS(AX)

second:
	CMPQ CX, R15
	JEQ  next

	// Stage 4 of slot j-1: rv3 (Y12) = 3·rv, rv = ((dx·dvx + dy·dvy) +
	// dz·dvz)·rinv2. Y10 is mrinv3; Y7 starts from the first half's miss
	// word.
	VMOVUPD BDX(R14), Y12
	VMULPD  BDVX(R14), Y12, Y12
	VMOVUPD BDY(R14), Y13
	VMULPD  BDVY(R14), Y13, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD BDZ(R14), Y13
	VMULPD  BDVZ(R14), Y13, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  BRINV2(R14), Y12, Y12
	ROUND(Y12, Y13, Y14)
	VMULPD  QTHREE(DI), Y12, Y12
	ROUND(Y12, Y13, Y14)
	VMOVUPD BMRINV3(R14), Y10
	VMOVDQU BMISS(R14), Y7

	// Stage 5: the seven contributions into the sums.
	VMULPD BDX(R14), Y10, Y11
	ROUND(Y11, Y13, Y14)
	ADDTAME(Y0, Y11, QSCA, FQ0, Y13)
	VMULPD BDY(R14), Y10, Y11
	ROUND(Y11, Y13, Y14)
	ADDTAME(Y1, Y11, QSCA, FQ1, Y13)
	VMULPD BDZ(R14), Y10, Y11
	ROUND(Y11, Y13, Y14)
	ADDTAME(Y2, Y11, QSCA, FQ2, Y13)

	VMULPD  BDX(R14), Y12, Y11
	VMOVUPD BDVX(R14), Y13
	VSUBPD  Y11, Y13, Y11
	ROUND(Y11, Y13, Y14)
	VMULPD  Y11, Y10, Y11
	ROUND(Y11, Y13, Y14)
	ADDTAME(Y3, Y11, QSCJ, FQ3, Y13)
	VMULPD  BDY(R14), Y12, Y11
	VMOVUPD BDVY(R14), Y13
	VSUBPD  Y11, Y13, Y11
	ROUND(Y11, Y13, Y14)
	VMULPD  Y11, Y10, Y11
	ROUND(Y11, Y13, Y14)
	ADDTAME(Y4, Y11, QSCJ, FQ4, Y13)
	VMULPD  BDZ(R14), Y12, Y11
	VMOVUPD BDVZ(R14), Y13
	VSUBPD  Y11, Y13, Y11
	ROUND(Y11, Y13, Y14)
	VMULPD  Y11, Y10, Y11
	ROUND(Y11, Y13, Y14)
	ADDTAME(Y5, Y11, QSCJ, FQ5, Y13)

	// The potential's contribution is −mrinv: Magic − mrinv·scale is
	// (−mrinv)·scale + Magic, bit for bit.
	VMOVUPD BMRINV(R14), Y9
	VMULPD  QSCP(DI), Y9, Y9
	VMOVUPD QMAGIC(DI), Y11
	VSUBPD  Y9, Y11, Y11
	ADDT(Y6, Y11, FQ6, Y13)

	// The miss word: the new sums outside ±2^61, and the MagicMiss terms
	// with the first half's word.
	VPADDQ QSUMBIAS(DI), Y0, Y11
	VPADDQ QSUMBIAS(DI), Y1, Y13
	VPOR   Y13, Y11, Y11
	VPADDQ QSUMBIAS(DI), Y2, Y13
	VPOR   Y13, Y11, Y11
	VPADDQ QSUMBIAS(DI), Y3, Y13
	VPOR   Y13, Y11, Y11
	VPADDQ QSUMBIAS(DI), Y4, Y13
	VPOR   Y13, Y11, Y11
	VPADDQ QSUMBIAS(DI), Y5, Y13
	VPOR   Y13, Y11, Y11
	VPADDQ QSUMBIAS(DI), Y6, Y13
	VPOR   Y13, Y11, Y11
	VPAND  QSUMMISS(DI), Y11, Y11
	VPAND  QMAGICMISS(DI), Y7, Y7
	VPOR   Y7, Y11, Y11
	VPTEST Y11, Y11
	JNE    miss

	// Nearest-neighbour unit: if id ≠ self && (r2 < nnd2 || (r2 == nnd2 &&
	// (nn < 0 || id < nn))), nnd2, nn = r2, id. Only the sign bit of the
	// blend mask counts, and the sign bit of nn is nn < 0.
	VPBROADCASTQ -8(BX)(CX*8), Y9
	VPCMPEQQ     QSELF(DI), Y9, Y10
	VMOVUPD      BR2(R14), Y11
	VMOVUPD      QNND2(DI), Y12
	VMOVDQU      QNN(DI), Y13
	VCMPPD       $0x11, Y12, Y11, Y14 // LT_OQ
	VCMPPD       $0x00, Y12, Y11, Y15 // EQ_OQ
	VPCMPGTQ     Y9, Y13, Y7
	VPOR         Y13, Y7, Y7
	VPAND        Y15, Y7, Y7
	VPOR         Y14, Y7, Y7
	VPANDN       Y7, Y10, Y7
	VBLENDVPD    Y7, Y11, Y12, Y12
	VBLENDVPD    Y7, Y9, Y13, Y13
	VMOVUPD      Y12, QNND2(DI)
	VMOVDQU      Y13, QNN(DI)

next:
	CMPQ  CX, DX
	JGE   done
	XCHGQ R14, AX
	INCQ  CX
	JMP   loop

done:
	VMOVDQU Y0, QSUM0(DI)
	VMOVDQU Y1, QSUM1(DI)
	VMOVDQU Y2, QSUM2(DI)
	VMOVDQU Y3, QSUM3(DI)
	VMOVDQU Y4, QSUM4(DI)
	VMOVDQU Y5, QSUM5(DI)
	VMOVDQU Y6, QSUM6(DI)
	MOVQ    CX, ret+24(FP)
	VZEROUPPER
	RET

miss:
	// Slot j-1 missed: take its contributions back out and return it.
	DECQ   CX
	VPSUBQ FQ0, Y0, Y0
	VPSUBQ FQ1, Y1, Y1
	VPSUBQ FQ2, Y2, Y2
	VPSUBQ FQ3, Y3, Y3
	VPSUBQ FQ4, Y4, Y4
	VPSUBQ FQ5, Y5, Y5
	VPSUBQ FQ6, Y6, Y6
	JMP    done
