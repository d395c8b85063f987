package cpuid

// hasAVX2 reads CPUID leaves 1 and 7 and XGETBV (cpuid_amd64.s).
func hasAVX2() bool
