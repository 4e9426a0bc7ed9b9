"""Raw seed table for the closed-form 3F2(1) database.

Each record is a dict with the parameter lists and right-hand side written in
the text grammar of :mod:`hyp321.parser`:

``id``        stable identifier
``upper``     comma-separated upper parameters (affine in the symbols)
``lower``     comma-separated lower parameters
``rhs``       closed form for the sum
``derived``   optional list of ``(name, definition)`` pairs introducing
              helper symbols whose value is a (generally nonlinear) function
              of the base symbols; the parameter lists may then stay affine
``ints``      optional constraints per integer symbol (default ``sym >= 1``)
``prov``      free-text source tag
``status``    "verified" unless overridden
``note``      transcription remarks

Two further entries (X10, X0M1) are assembled programmatically in
:mod:`hyp321.database` by applying the Dixon-to-Watson map
``contiguous.x_to_w`` (arguments and gamma quotient) to B.47 and B.43.
"""

RAW_ENTRIES = [
    # ------------------------------------------------------------------
    # finite-sum reductions B.1 - B.36
    # ------------------------------------------------------------------
    dict(
        id="B.1",
        upper="a, m, b", lower="c, m-n",
        rhs="G(a+n-m+1) * Sum(L, 0, m-1, (-1)^L * G(-b+c-a-n+L) * G(1-b+L)"
            " / (G(m-L)*G(-b-n+1+L)*G(-b+c-m+1+L)*G(L+1)))"
            " * G(c) * G(m-n) * (-1)^n / (G(c-a)*G(a))",
        ints={"n": ("n>=1", "n<m"), "m": ("m>=1",)},
        prov="Prudnikov 7.4.4.14 : T2",
    ),
    dict(
        id="B.2",
        upper="a, b, -n", lower="c, m-n",
        rhs="G(a+n-m+1) * Sum(L, 0, m-1, (-1)^L * G(c-a+L) * G(1+b-m+n+L)"
            " / (G(m-L)*G(b-m+1+L)*G(c+n-m+1+L)*G(L+1)))"
            " * G(c) * G(m-n) * (-1)^n / (G(c-a)*G(a))",
        ints={"n": ("n>=1", "n<m"), "m": ("m>=1",)},
        prov="Prudnikov 7.4.4.14 : T5",
    ),
    dict(
        id="B.3",
        upper="a, -n, b", lower="c, a-c+b-n+m",
        rhs="G(c-b+n-m+1) * G(-a+c-b-m+1)"
            " * Sum(L, 0, m-1, (-1)^L * G(b+L) * G(1-a+c-m+n+L)"
            " / (G(m-L)*G(-a+c-m+1+L)*G(c+n-m+1+L)*G(L+1)))"
            " * G(m) * G(c) / (G(n+1-a+c-b-m)*G(b)*G(c-b))",
        prov="Prudnikov 7.4.4.14 : T7",
    ),
    dict(
        id="B.4",
        upper="a, 1, b", lower="n+1, c",
        rhs="G(a-n)*G(b-n)*G(n+1)*G(c)*G(-b+c-a+n)/(G(b)*G(c-b)*G(a)*G(c-a))"
            " + G(-b+1) * Sum(L, 0, n-1, G(-L+a-1)*(-1)^L"
            " / (G(c-1-L)*G(n-L)*G(-b+2+L))) * G(n+1)*G(c)/G(a)",
        prov="Ref. 11, Lemma 2.2 : T1",
    ),
    dict(
        id="B.5",
        upper="a, b, n", lower="n+1, c",
        rhs="G(b-n) * Sum(L, 0, n-1, G(-L+a-1)*(-1)^L"
            " / (G(-b+c-L)*G(n-L)*G(b+1+L-n)))"
            " * G(n+1)*G(c)*G(-b+c-a+1)/(G(a)*G(c-a))"
            " + G(a-n)*G(-b+1)*G(n+1)*G(c)/(G(n+1-b)*G(c-n)*G(a))",
        prov="Ref. 11, Lemma 2.2 : T2",
    ),
    dict(
        id="B.6",
        upper="1, a, b", lower="c, -c+b+a+n+1",
        rhs="(-c+b+a+n)*G(-c+a+1) * Sum(L, 0, n-1, G(-L+c-b-1)*(-1)^L"
            " / (G(c-1-L)*G(n-L)*G(-c+a+2+L))) * G(n)*G(c)/G(c-b)"
            " + G(-c+b+a+n+1)*G(-b+c-n)*G(c-a-n)*G(n)*G(c)"
            " / (G(c-a)*G(a)*G(c-b)*G(b))",
        prov="Ref. 11, Lemma 2.2 : T6",
    ),
    dict(
        id="B.7",
        upper="n, a, b", lower="c, -c+b+a+n+1",
        rhs="G(-c+b+a+n+1)*G(c-a-n) * Sum(L, 0, n-1, G(-L+c-b-1)*(-1)^L"
            " / (G(a-L)*G(n-L)*G(c+1-a-n+L))) * G(c)/(G(c-b)*G(b))"
            " + G(-c+b+a+n+1)*G(-b+c-n)*(-1)^n*G(c-a-n)*G(c)"
            " / (G(c-a)*G(c-n)*G(c-b)*G(-c+b+1+a))",
        prov="Ref. 11, Lemma 2.2 : T9",
    ),
    dict(
        id="B.8",
        upper="a, b, a/2-b-3/2-n", lower="a/2+b+1/2, a-b-1-n",
        rhs="(1/2)*G(a/2+b+1/2)*G(b+n+2)*G(a-b-1-n)*pi"
            " / (cos(pi*(2*b-a)/2)*G(-a/2+b+1/2)*G(a/2+1/2)^2"
            "*G(2+n+2*b)*G(-2*b-n+a-1))"
            " + (1/2)*Sum(L, 0, n+1, G(-a/2+b+1/2+L)*G(-b-n-1+L)"
            " / (G(a/2-b-1/2-n+L)*G(b+1+L)))"
            " * G(a/2+b+1/2)*G(a-b-1-n)/(G(-b-n-1)*G(a)*G(-a/2+b+1/2))",
        prov="Prudnikov 7.4.4.31 : T5",
    ),
    dict(
        id="B.9",
        upper="a, b, n+a/2-b-3/2", lower="a/2+b+1/2, n+a-b-1",
        rhs="-(1/2)*G(a/2-b+1/2)*G(b-n+2)"
            " * Sum(L, 1, n-2, G(3/2-a/2+b-n+L)*G(-b+L)"
            " / (G(1/2+a/2-b+L)*G(2+b-n+L)))"
            " * G(a/2+b+1/2)*G(n+a-b-1)*sin(pi*b)*(-1)^n*cos(pi*(a/2-b))"
            " / (G(a)*pi^2)"
            " + (1/2)*G(a/2-b+1/2)*G(a/2+b+1/2)*G(b-n+2)*G(n+a-b-1)"
            " / (G(a/2+1/2)^2*G(n+a-2*b-1)*G(-n+2*b+2))",
        prov="Prudnikov 7.4.4.32 : T5",
    ),
    dict(
        id="B.10",
        upper="4*a+n, a, a+1/2", lower="1/2+3*a+n/2, 1+3*a+n/2",
        rhs="2^(2*a)*G(1+3*a+n/2)*G(1/2+3*a+n/2)"
            " * Sum(k, 0, n-1, (-1)^k*G(1-2*a-n+k)/G(1+2*a+k))"
            " / (G(1-2*a-n)*sqrt(pi)*G(1+4*a+n))"
            " + 2^(-1+6*a+n)*G(2*a+n)*G(1+3*a+n/2)*G(1/2+3*a+n/2)"
            " / (G(4*a+n)*sqrt(pi)*G(1+4*a+n))",
        prov="Prudnikov 7.4.4.25 variation 2 : T1",
    ),
    dict(
        id="B.11",
        upper="1-n+4*a, a+1/2, a", lower="1-n/2+3*a, -n/2+3*a+3/2",
        rhs="(-n/2+1/2+2*a)*G(1+2*a-n)*G(2-n+6*a)/G(2-n+4*a)^2"
            " - G(1+2*a-n)*Sum(k, 1, n-1, (-1)^k*G(-2*a+k)/G(1-n+2*a+k))"
            " * G(1-n/2+3*a)*G(-n/2+3*a+3/2)"
            " / (G(-2*a)*G(2-n+4*a)*G(a+1/2)*G(1+a))",
        prov="Prudnikov 7.4.4.25 variation 3 : T1",
    ),
    dict(
        id="B.12",
        upper="a, b, a/2+1/2", lower="1+a, a/2-n/2-1/2+b/2",
        rhs="(1/2)*G(a/2-n/2-1/2+b/2)*a"
            " * Sum(L, 0, n+1, G(-a/2-n/2-1/2+b/2+L)*G(-b/2-n/2+L)"
            " / (G(a/2-n/2+1/2-b/2+L)*G(b/2-n/2+L)))"
            " / G(-a/2-n/2-1/2+b/2)"
            " - (1/2)*G(a/2-n/2-1/2+b/2)*G(a/2+n/2+3/2-b/2)*sqrt(pi)*2^a"
            "*G(1+a/2)/(G(b)*G(1+a-b)*G(a/2+1/2)*sin(pi*(b+n)/2))",
        prov="Prudnikov 7.4.4.31 : T1",
        note="leading factor 1/2 restored from the printed fraction layout",
    ),
    dict(
        id="B.13",
        upper="a, b, 1", lower="2*b, a/2-n/2",
        rhs="G(a/2-n/2)*(b-1/2)*G(b-n/2-a/2-1)"
            " * Sum(L, 0, n+1, G(-b-n/2+a/2+L)*G(-a/2-n/2+L)"
            " / (G(b-n/2-a/2+L)*G(a/2-n/2+L)))"
            " / (G(a/2-b-n/2)*G(-a/2-n/2))"
            " - sqrt(pi)*2^(2*b-2)*G(a/2-n/2)*G(b+n/2-a/2+1)*G(b+1/2)"
            "*G(b-n/2-a/2-1)"
            " / (G(2*b-a)*G(a)*sin(pi*(a+n)/2)*G(-a/2-n/2)*G(b))",
        prov="Prudnikov 7.4.4.31 : T3",
    ),
    dict(
        id="B.14",
        upper="a, a/2-n/2-1, b", lower="a-b-1-n, a/2-n/2",
        rhs="((-1/2)*Sum(L, 0, n+1, G(b+L)*G(-a/2-n/2+L)"
            " / (G(-b-n+L)*G(a/2-n/2+L)))"
            " * sin(pi*(a+n)/2)*G(a/2-n/2)*G(-n-2*b)/(pi*G(-2*b-n+a-1))"
            " + pi^(3/2)*(-1)^n*G(-a+1)"
            " / (sin(pi*b)*2^(a-n)*G(a/2-b-n/2)^2*G(1/2+a/2-n/2)*G(n+1-a)))"
            " * G(a/2+n/2+1)*G(a-b-1-n)/G(b)",
        prov="Prudnikov 7.4.4.31 : T6",
    ),
    dict(
        id="B.15",
        upper="a, b, -b-n-1", lower="-b-n-2+2*a, b+1",
        rhs="(1/2)*Sum(L, 0, n+1, G(-b-n-1+L)*G(b-a+1+L)"
            " / (G(b+1+L)*G(a-b-1-n+L)))"
            " * G(a)*G(b+1)*G(-b-n-2+2*a)/(G(2*a-1)*G(-b-n-1)*G(b-a+1))"
            " + 2^(2*n-1)*sqrt(pi)*G(-1-n-2*b)*G(3+n-2*a+2*b)*G(b+n+2)"
            "*G(a-b)*G(a-1/2)*G(-b-n-2+2*a)"
            " / (G(3+2*n-2*a+2*b)*G(3/2+b)*G(-1/2+a-b-n)*G(2*a-1)"
            "*G(a-b-1-n)*G(-1-2*b))",
        prov="Prudnikov 7.4.4.31 : T7",
    ),
    dict(
        id="B.16",
        upper="a, b, n-b-1", lower="n-b-2+2*a, b+1",
        rhs="-(1/2)*G(b-n+2)*G(a-b)"
            " / (G(2+b-a-n)*G(n+a-b-1)*G(-b)*G(2*a-1))"
            " * Sum(L, 1, n-2, G(-b+L)*G(-a+b+2+L-n)"
            " / (G(2+b-n+L)*G(-b+a+L)))"
            " * G(a)*G(n-b-2+2*a)"
            " - (1/2)*pi*G(a-b)*G(n-b-2+2*a)*G(b-n+2)"
            " / (sin(pi*b)*G(-b)*G(n+2*a-2*b-2)*G(a)*G(-n+2*b+2))",
        prov="Prudnikov 7.4.4.32 : T7",
        note="coefficient -1/2 on the sum term fixed numerically",
    ),
    dict(
        id="B.17",
        upper="a, b, -b+2", lower="c, 2*a+2-c",
        rhs="((1/2)*G(a-c/2+1-b/2)*G(b/2-1+c/2)/(G(a+b/2-c/2)*G(-b/2+c/2))"
            " - (1/2)*G(3/2+a-b/2-c/2)*G(b/2+c/2-1/2)"
            " / (G(a-c/2+1/2+b/2)*G(-b/2+c/2+1/2)))"
            " * G(2*a+2-c)*G(c)"
            " / ((-b+1)*(-c+a+1)*G(c+b-2)*G(2+2*a-b-c))",
        prov="Prudnikov 7.4.4.22 : T7",
    ),
    dict(
        id="B.18",
        upper="a, b, a/2+1/2", lower="1+a, n/2+a/2-1/2+b/2",
        rhs="(-(1/2)*cos(pi*(b-a-n)/2)*G(3/2+a/2-n/2-b/2)*a"
            "*G(n/2+a/2-1/2+b/2)*sin(pi*(b+n)/2)"
            " * Sum(L, 1, n-2, G(-a/2-n/2+1/2+b/2+L)*G(-b/2-n/2+1+L)"
            " / (G(3/2+a/2-n/2-b/2+L)*G(1+b/2-n/2+L))) / pi"
            " + 2^(a-1)*sqrt(pi)*G(1+a/2)*G(n/2+a/2-1/2+b/2)"
            "*G(3/2+a/2-n/2-b/2)/(G(1+a-b)*G(a/2+1/2)*G(b)))"
            " / sin(pi*(-b+n)/2)",
        prov="Prudnikov 7.4.4.32 : T1",
    ),
    dict(
        id="B.19",
        upper="a, b, 1", lower="2*b, a/2+n/2",
        rhs="G(1+b-n/2-a/2)*G(a/2-n/2+1)"
            " * Sum(L, 1, n-2, G(1-b-n/2+a/2+L)*G(-a/2-n/2+1+L)"
            " / (G(1+b-n/2-a/2+L)*G(1+a/2-n/2+L)))"
            " * (b-1/2) / (G(-b-n/2+a/2+2)*G(-n/2-a/2+1))"
            " + sqrt(pi)*G(n-a+2*b)*G(a+n)*G(b+1/2)*G(1+b-n/2-a/2)"
            "*G(a/2-n/2+1)"
            " / (G(a)*G(b)*2^(2*n)*G(b+n/2+1/2-a/2)*G(a/2+n/2+1/2)"
            "*(n/2+b-a/2-1)*G(2*b-a))",
        prov="Prudnikov 7.4.4.32 : T3",
    ),
    dict(
        id="B.20",
        upper="a, n/2+a/2-1, b", lower="n+a-b-1, a/2+n/2",
        rhs="2^(-2-2*b)*G(a+n)*G(n/2+a/2-b-1/2)*G(-b+1)*G(a/2-n/2+1)"
            "*G(n+a-b-1)"
            " / (G(a)*G(n/2+a/2-b)*G(a/2+n/2+1/2)*G(n+a-2*b-1))"
            " - (1/2)*G(-b+1)*G(a/2-n/2+1)"
            " * Sum(L, 1, n-2, G(b+1+L-n)*G(-a/2-n/2+1+L)"
            " / (G(1-b+L)*G(1+a/2-n/2+L)))"
            " * G(n-2*b)*G(n+a-b-1)"
            " / (G(-n+b+1)*G(-n/2-a/2+1)*G(n+a-2*b-1)*G(-b+n))",
        prov="Prudnikov 7.4.4.32 : T6",
    ),
    dict(
        id="B.21",
        upper="2*a, a, a+1/2", lower="1/2+3*a/2-n/4, 2*a+1",
        rhs="Sum(k, 0, n-1, (-1)^k*G(-a-n/2+1+k)/G(a-n/2+1+k))"
            " * G(1/2+3*a/2-n/4)*2^(2*a)/G(-a/2-n/4+1/2)"
            " + 2^(3*a-n/2-1)*G(a+n/2)*G(1/2+3*a/2-n/4)*G(-n/4-a/2+1)"
            " / (G(2*a)*sqrt(pi))",
        prov="Prudnikov 7.4.4.25 variation 2 : T2",
    ),
    dict(
        id="B.22",
        upper="a, 2*a+n/2, 1/2-a-n/2", lower="1/2+3*a+n/2, 1+a",
        rhs="(1/2)*Sum(k, 0, n-1, (-1)^k*G(1-2*a-n+k)/G(1+2*a+k))"
            " * G(1/2+3*a+n/2)*G(2*a+2)*G(1+n/2+2*a)"
            " / (G(1-2*a-n)*G(1+4*a+n)*G(a+3/2))"
            " + 4^(n/2-1+3*a)*G(2*a+n)*G(1/2+3*a+n/2)*G(1+n/2+2*a)*G(1+a)"
            " / (sqrt(pi)*(2*a+n/2)*G(4*a+n)^2)",
        prov="Prudnikov 7.4.4.25 variation 2 : T3",
    ),
    dict(
        id="B.23",
        upper="a, -1/2+2*a+n/2, -a-n/2+1", lower="n/2-1+3*a, 1+a",
        rhs="(Sum(k, 0, n-1, (-1)^k*G(-2*a-n+2+k)/G(2*a+k))"
            " * 2^(2*a-2)/(G(-2*a-n+2)*G(-1+4*a+n))"
            " + 4^(n/2+3*a-3)*G(-1+2*a+n)/((-1+2*a+n/2)*G(-2+4*a+n)^2))"
            " * 2/sqrt(pi)"
            " * G(-1/2+2*a+n/2)*G(n/2-1+3*a)*G(1+a)",
        prov="Prudnikov 7.4.4.25 variation 2 : T4",
    ),
    dict(
        id="B.24",
        upper="a, a/2+1/2, 1+a/2", lower="1-n/4+3*a/4, 1+a",
        rhs="(1/2)*Sum(k, 0, n-1, (-1)^k*G(-n/2-a/2+1+k)/G(a/2-n/2+1+k))"
            " * G(1-n/4+3*a/4)*G(a/2-n/2+2)*G(-n/4-a/4+1/2)"
            " / (G(-n/2-a/2+1)*G(a/4-n/4+1)*G(3/2+a/4-n/4))"
            " + 2^(3*a/2-n/2-1)*G(a/2+n/2)*G(1-n/4+3*a/4)*G(-n/4-a/4+1/2)"
            " / (G(a)*sqrt(pi))",
        prov="Prudnikov 7.4.4.25 variation 2 : T5",
        note="first upper parameter `a` restored from the printed excess",
    ),
    dict(
        id="B.25",
        upper="a, 1/2+2*a+n/2, -a-n/2+1", lower="1+3*a+n/2, 1+a",
        rhs="(1/2)*Sum(k, 0, n-1, (-1)^k*G(1-2*a-n+k)/G(1+2*a+k))"
            " * G(1+3*a+n/2)*G(1/2+2*a+n/2)*G(2*a+2)"
            " / (G(1-2*a-n)*G(1+4*a+n)*G(a+3/2))"
            " + 2^(-2+n+6*a)*G(2*a+n)*G(1+3*a+n/2)*G(1/2+2*a+n/2)*G(1+a)"
            " / (sqrt(pi)*(2*a+n/2)*G(4*a+n)^2)",
        prov="Prudnikov 7.4.4.25 variation 2 : T6",
        note="first upper parameter `a` restored from the printed excess",
    ),
    dict(
        id="B.26",
        upper="a, 2*a+n/2, -a+3/2-n/2", lower="-1/2+3*a+n/2, 1+a",
        rhs="(1/2)*Sum(k, 0, n-1, (-1)^k*G(-2*a-n+2+k)/G(2*a+k))"
            " * G(-1/2+3*a+n/2)*G(-1+2*a+n/2)*G(2*a+1)"
            " / (G(-2*a-n+2)*G(-1+4*a+n)*G(a+1/2))"
            " + 2^(-5+n+6*a)*G(1+a)*G(-1+2*a+n/2)*G(-1+2*a+n)"
            "*G(-1/2+3*a+n/2)"
            " / ((-1+2*a+n/2)*sqrt(pi)*G(-2+4*a+n)^2)",
        prov="Prudnikov 7.4.4.25 variation 2 : T7",
    ),
    dict(
        id="B.27",
        upper="a, a+1/2, 1", lower="2*a+1, a/2-n/4+1",
        rhs="2^(2*a-2)*G(1/2+a/2-n/4)*G(2+a-n/2)*G(a+n/2)"
            " / (G(2*a)*G(a/2-n/4+3/2))"
            " + (1/2)*Sum(k, 0, n-1, (-1)^k*G(-a-n/2+1+k)/G(a-n/2+1+k))"
            " * G(1/2+a/2-n/4)*G(2+a-n/2)"
            " / (G(-a-n/2+1)*G(a/2-n/4+3/2))",
        prov="Prudnikov 7.4.4.25 variation 2 : T8",
    ),
    dict(
        id="B.28",
        upper="a-1/2, a, 1", lower="2*a-1, a/2-n/4+1",
        rhs="(2^(-1+a-n/2)*Sum(k, 0, n-1, (-1)^k*G(-n/2-a+2+k)/G(a-n/2+k))"
            " * G(a/2-n/4+1)/(G(-a-n/2+2)*sqrt(pi))"
            " + 2^(3*a-4-n/2)*G(-1+n/2+a)*G(a/2-n/4+1)"
            " / (sqrt(pi)*G(2*a-2)))"
            " * G(a/2-n/4-1/2)",
        prov="Prudnikov 7.4.4.25 variation 2 : T9",
    ),
    dict(
        id="B.29",
        upper="2*a-1, a, a-1/2", lower="-1/2+3*a/2+n/2, 2*a",
        rhs="-(1/2)*G(1+a+n)*G(a-n)"
            " * Sum(k, 1, 2*n-1, (-1)^k*G(-a-n+1+k)/G(a-n+k))"
            " * G(-1/2+3*a/2+n/2)*G(1-a/2+n/2)"
            " / (G(-a-n+1)*G(a+n)*G(a/2+n/2+1)*G(a/2+n/2+1/2))"
            " + 2^(3*a+n-3)*G(-1/2+3*a/2+n/2)*G(a-n)*G(1-a/2+n/2)"
            " / (sqrt(pi)*G(2*a-1))",
        prov="Prudnikov 7.4.4.25 variation 3 : T2",
        note="sign of the sum term fixed numerically",
    ),
    dict(
        id="B.30",
        upper="a, -n/2+2*a, 1/2+n/2-a", lower="-1/2-n/2+3*a, 1+a",
        rhs="-(1/2)*G(2*a+1)*G(-n+2*a)"
            " * Sum(k, 1, n-1, (-1)^k*G(1-2*a+k)/G(2*a-n+k))"
            " * G(-1/2-n/2+3*a)*G(-n/2+2*a)"
            " / (G(2*a)*G(a+1/2)*G(1-2*a)*G(4*a-n))"
            " - 2^(6*a-3-n)*(n-4*a+1)*G(1+a)*G(-n+2*a)*G(-1/2-n/2+3*a)"
            "*G(-n/2+2*a) / (sqrt(pi)*G(4*a-n)^2)",
        prov="Prudnikov 7.4.4.25 variation 3 : T3",
        note="sign of the sum term fixed numerically",
    ),
    dict(
        id="B.31",
        upper="a, -n/2+1/2+2*a, -a+n/2", lower="1-n/2+3*a, 1+a",
        rhs="-(1/2)*G(2*a+2)*G(1+2*a-n)"
            " * Sum(k, 1, n-1, (-1)^k*G(-2*a+k)/G(1-n+2*a+k))"
            " * G(1-n/2+3*a)*G(3/2-n/2+2*a)"
            " / (G(-2*a)*G(2-n+4*a)*G(2*a+1)*G(a+3/2))"
            " - 2^(-n+6*a)*(n-1-4*a)*G(1+2*a-n)*G(1-n/2+3*a)*G(1+a)"
            "*G(3/2-n/2+2*a) / (sqrt(pi)*G(2-n+4*a)^2)",
        prov="Prudnikov 7.4.4.25 variation 3 : T4",
        note="coefficient -1/2 on the sum term fixed numerically",
    ),
    dict(
        id="B.32",
        upper="2*a-1, a+1/2, a", lower="3*a/2+n/4, 2*a",
        rhs="-(1/2)*G(a-n/2)"
            " * Sum(k, 1, n-1, (-1)^k*G(-a-n/2+1+k)/G(a-n/2+k))"
            " * G(3*a/2+n/4)*G(-a/2+n/4+1/2)*G(1+a+n/2)"
            " / (G(-a-n/2+1)*G(1+a/2+n/4)*G(1/2+a/2+n/4)*G(a+n/2))"
            " + 2^(n/2+3*a-3)*G(3*a/2+n/4)*G(a-n/2)*G(-a/2+n/4+1/2)"
            " / (sqrt(pi)*G(2*a-1))",
        prov="Prudnikov 7.4.4.25 variation 3 : T5",
    ),
    dict(
        id="B.33",
        upper="a, -n/2+1/2+2*a, n/2+1-a", lower="-n/2+3*a, 1+a",
        rhs="-(1/2)*G(2*a+1)*G(-n+2*a)"
            " * Sum(k, 1, n-1, (-1)^k*G(1-2*a+k)/G(2*a-n+k))"
            " * G(-1/2-n/2+2*a)*G(-n/2+3*a)"
            " / (G(1-2*a)*G(4*a-n)*G(2*a)*G(a+1/2))"
            " + 2^(-2-n+6*a)*G(-n/2+1/2+2*a)*G(1+a)*G(-n+2*a)*G(-n/2+3*a)"
            " / (sqrt(pi)*G(4*a-n)^2)",
        prov="Prudnikov 7.4.4.25 variation 3 : T6",
        note="coefficient -1/2 on the sum term fixed numerically",
    ),
    dict(
        id="B.34",
        upper="a, -n/2+2*a+1, 1/2+n/2-a", lower="-n/2+3*a+3/2, 1+a",
        rhs="-(1/2)*G(2*a+2)*G(1+2*a-n)"
            " * Sum(k, 1, n-1, (-1)^k*G(-2*a+k)/G(1-n+2*a+k))"
            " * G(-n/2+2*a+1)*G(-n/2+3*a+3/2)"
            " / (G(2*a+1)*G(a+3/2)*G(-2*a)*G(2-n+4*a))"
            " - 2^(-n+6*a)*(n-1-4*a)*G(1+a)*G(1+2*a-n)*G(-n/2+2*a+1)"
            "*G(-n/2+3*a+3/2) / (sqrt(pi)*G(2-n+4*a)^2)",
        prov="Prudnikov 7.4.4.25 variation 3 : T7",
        note="the printed form joins the two terms with '='; the joining "
             "sign was fixed numerically",
    ),
    dict(
        id="B.35",
        upper="a, a+1/2, 1", lower="2*a, 1+a/2+n/4",
        rhs="(-(1/2)*Sum(k, 1, n-1, (-1)^k*G(-a-n/2+1+k)/G(a-n/2+k))"
            " * G(a/2+n/4-1/2)"
            " / (G(-a-n/2+1)*G(a+n/2)*G(1/2+a/2+n/4))"
            " + 4^(a-1)/((-1+n/2+a)*G(2*a-1)))"
            " * G(1+a+n/2)*G(a-n/2)",
        prov="Prudnikov 7.4.4.25 variation 3 : T8",
        note="sign of the sum term fixed numerically",
    ),
    dict(
        id="B.36",
        upper="a-1/2, a, 1", lower="2*a, 1/2+a/2+n/4",
        rhs="(-Sum(k, 1, n-1, (-1)^k*G(-a-n/2+1+k)/G(a-n/2+k))"
            " * sin(pi*(a+n/2))/pi + 4^(a-1)/G(2*a-1))"
            " * G(a+n/2)*G(a-n/2)",
        prov="Prudnikov 7.4.4.25 variation 3 : T9",
        note="sign of the sum term fixed numerically; the printed form only"
             " holds at n = 1 where the sum is empty",
    ),
    # ------------------------------------------------------------------
    # rational / gamma closed forms B.37 - B.52
    # ------------------------------------------------------------------
    dict(
        id="B.37",
        upper="a, 2, b", lower="c, 4",
        rhs="-6*(2*c-5+b-a*b+a)*G(c)*G(-b+2+c-a)"
            " / ((a-3)*(b-1)*(-2+a)*(a-1)*(b-3)*(b-2)*G(c-a)*G(c-b))"
            " + 6*(c-2)*(c-1)*(a*b-3*b-3*a+3+2*c)"
            " / ((a-3)*(b-1)*(-2+a)*(a-1)*(b-3)*(b-2))",
        prov="Prudnikov 7.4.4.17 : T2",
    ),
    dict(
        id="B.38",
        upper="a, a-n-1, b", lower="c, a-n+1",
        rhs="-((a-n)*(a-n-1)*(-b*n-a*c+n*c+a^2-a*n+c-a+n)*G(-b+2+c-a)"
            "*G(c)*G(n)"
            " * Sum(k, 0, n, G(a-1-n+k)*G(c-a+k)/(G(k+1)*G(1-n+c-b+k))))"
            " / ((b-1)*G(n+c+1-a)*G(c-a)*G(a))"
            " - (a-n)*(a-n-1)*G(-b+2+c-a)*G(c)"
            " / (n*(b-1)*G(c+1-b)*G(c-a))",
        prov="Gessel & Stanton Eq.(5.16) : T6",
    ),
    dict(
        id="B.39",
        upper="a, 2, b", lower="c, 4+a-c+b",
        rhs="(-a-2+c-b)*(-a-3+c-b)*(c-2)*(c-1)"
            "*(3-4*c-c*a+c^2+3*a+a*b+3*b-b*c)"
            " / ((-a-2+c)*(c-3-b)*(c-2-b)*(c-1-b)*(-a-3+c)*(-a+c-1))"
            " + (a+5-c*a+c^2-4*c+a*b-b*c+b)*G(4+a-c+b)*G(c)"
            " / ((-a-2+c)*(c-3-b)*(c-2-b)*(c-1-b)*(-a-3+c)*(-a+c-1)"
            "*G(b)*G(a))",
        prov="Prudnikov 7.4.4.17 : T3",
    ),
    dict(
        id="B.40",
        upper="a, b, d-n", lower="1+b+d, a-n+1",
        derived=[("d", "a*n/(b+n)")],
        rhs="(-1)^n*sin(pi*b)*G(1+b+d)*G(-b)"
            " / (sin(pi*a)*G(1+a)*G(1-n+d)*G(n-a))",
        prov="Gessel & Stanton Eq(1.9) : T7",
    ),
    dict(
        id="B.41",
        upper="a, b, -h", lower="1+b-d, 1+a+n",
        derived=[("d", "a*n/(b-n)"), ("h", "n*(n-b+a)/(b-n)")],
        rhs="(-1)^n*sin(pi*b)*G(1+b-d)*G(-b)"
            " / (sin(pi*a)*G(1+a)*G(-a-n)*G(n+1-d))",
        prov="Gessel & Stanton Eq(1.9) with n -> -1-n : T7",
    ),
    dict(
        id="B.42",
        upper="a, b, c", lower="n+1+c+b, a-n+1",
        rhs="G(n+1+c+b)*G(a-n+1)*(-n^2*c+n^2*a-n^3-n^2*b-n*c*b)*G(n)"
            " * Sum(k, 0, n, G(b+k)*G(c+k)/(G(k+1)*G(a+1+k-n)))"
            " / ((a-c-b-n)*G(c)*G(b)*G(c+n+1)*G(b+n+1)*n)"
            " + G(n+1+c+b)*G(a-n+1)/(n*(a-c-b-n)*G(1+a)*G(c)*G(b))",
        prov="Gessel & Stanton Eq.(5.16) : T5",
        note="grouping of the printed right side restored numerically",
    ),
    dict(
        id="B.43",
        upper="a, b, c", lower="2*c-1, a/2+b/2+1/2",
        rhs="sqrt(pi)*G(c-1/2)*G(a/2+b/2+1/2)*G(c-a/2-b/2-1/2)"
            " * (G(a/2)*G(b/2)*G(c-a/2)*G(c-b/2)"
            " + G(b/2+1/2)*G(c-1/2-a/2)*G(c-1/2-b/2)*G(a/2+1/2))"
            " / (G(b/2+1/2)*G(c-1/2-a/2)*G(c-1/2-b/2)*G(a/2+1/2)"
            "*G(c-a/2)*G(c-b/2)*G(a/2)*G(b/2))",
        prov="Prudnikov 7.4.4.20 : T1",
    ),
    dict(
        id="B.44",
        upper="a, b, c", lower="1+2*b, c/2+a/2",
        rhs="(G(a/2)/(G(1+b-c/2)*G(-a/2+b+1/2)*G(c/2))"
            " + G(a/2+1/2)/(G(1/2+b-c/2)*G(-a/2+1+b)*G(c/2+1/2)))"
            " * sqrt(pi)*G(c/2+a/2)*G(1+2*b)*G(-c/2-a/2+1+b)"
            " / (2^(-a+1+2*b)*G(b+1)*G(a))",
        prov="Prudnikov 7.4.4.20 : T2",
    ),
    dict(
        id="B.45",
        upper="a, b, -b+1", lower="c, 2*a-c",
        rhs="(sqrt(pi)*G(a-1)*G(c)*G(b/2+c/2-1/2)"
            " / (2^(2*a-b-c)*G(a)*G(-b/2+c/2+1/2)*G(a-b/2-c/2)"
            "*G(a+b/2-c/2-1/2)*G(c+b-1))"
            " + sqrt(pi)*G(b/2+c/2)*G(a-1)*G(c)"
            " / (2^(2*a-b-c)*G(a)*G(-b/2+c/2)*G(-b/2+a-c/2+1/2)"
            "*G(a+b/2-c/2)*G(c+b-1)))"
            " * G(2*a-c)",
        prov="Prudnikov 7.4.4.20 : T7",
    ),
    dict(
        id="B.46",
        upper="a, b, -b", lower="c, 2*a-c+1",
        rhs="sqrt(pi)*G(2*a-c+1)*G(c)*G(b/2+c/2)"
            " / (2^(2*a-c+1-b)*G(a-c/2+1+b/2)*G(-b/2+a-c/2+1/2)"
            "*G(-b/2+c/2)*G(c+b))"
            " + sqrt(pi)*G(2*a-c+1)*G(c/2+b/2+1/2)*G(c)"
            " / (2^(2*a-c+1-b)*G(a-c/2+1/2+b/2)*G(a-c/2+1-b/2)"
            "*G(-b/2+c/2+1/2)*G(c+b))",
        prov="Prudnikov 7.4.4.20 : T8",
    ),
    dict(
        id="B.47",
        upper="a, b, c", lower="2*c, 1+b/2+a/2",
        rhs="((1/2)*G(c-a/2)*G(a/2)/(G(c-b/2)*G(b/2))"
            " - (1/2)*G(1/2-a/2+c)*G(a/2+1/2)/(G(1/2-b/2+c)*G(b/2+1/2)))"
            " * G(1+b/2+a/2)*G(2*c)*G(-a/2+1-b/2+c)"
            " / (G(2*c-a)*G(c)*G(a)*(b/2-a/2)*(-a/2-b/2+c))",
        prov="Prudnikov 7.4.4.22 : T1",
    ),
    dict(
        id="B.48",
        upper="a, b, c", lower="c/2+b/2+n/2+1/2+m/2, -n+2*a",
        rhs="W(c, -b+2*a-n, a-n, m, n)"
            " * G(-c/2-b/2+a-n/2+1/2+m/2)*G(c/2+b/2+n/2+1/2+m/2)"
            " / (G(-c/2+b/2+n/2+1/2+m/2)*G(c/2-b/2+a-n/2+1/2+m/2))",
        prov="Lewanowicz Eq.(2.15) : T3",
    ),
    dict(
        id="B.49",
        upper="a, -a+m+1, b", lower="c, -c+n+2*b+1+m",
        rhs="W(a-c+n+2*b, -c-a+n+1+m+2*b, b, m, n)*G(b+n)*G(c)"
            " / (G(c-b)*G(2*b+n))",
        prov="Lewanowicz Eq.(2.15) : T9",
    ),
    dict(
        id="B.50",
        upper="a, b, c", lower="b+2-a, 1+b-c",
        rhs="-G(b+2-a)*G(1+b-c)*G(b/2-c-a+2)*sqrt(pi)"
            " / (G(-a+1+b/2)*G(b/2-c+1)*G(b/2+1/2)*(a-1)*G(-c-a+b+2)*2^b)"
            " + G(b+2-a)*G(1+b-c)*G(b/2-c-a+3/2)*sqrt(pi)"
            " / ((a-1)*G(-c-a+b+2)*G(b/2)*G(b/2+3/2-a)*2^b*G(1/2+b/2-c))",
        prov="Lavoie Math. Comp. 49, Eq(2) : T2",
        note="sign of the first term fixed numerically",
    ),
    dict(
        id="B.51",
        upper="a, b, c", lower="1+c/2+b/2, 2*a-1",
        rhs="((-1/4)*c*(-b-1+2*a)*G(a-b/2)*G(c/2+1/2)"
            " / (G(-c/2+a)*G(b/2+1/2))"
            " + G(1+c/2)*G(-b/2+a+1/2)/(G(-c/2+a-1/2)*G(b/2)))"
            " * G(1+c/2+b/2)*G(a-b/2-c/2)*G(a-1/2)*2^(c-b+2*a-1)"
            " / (sqrt(pi)*G(c+1)*G(2*a-b)*(-c/2+b/2))",
        prov="Lavoie Math. Comp. 49, Eq(2) : T3",
    ),
    dict(
        id="B.52",
        upper="a, -a+1, b", lower="c, -c+2+2*b",
        rhs="(-1/((c-1-b)*G(1/2+a/2-c/2+b)*G(-c/2-a/2+1+b)*G(c/2+a/2)"
            "*G(-a/2+c/2+1/2))"
            " + 1/((c-1-b)*G(a/2-c/2+1+b)*G(-a/2+c/2)*G(-1/2+c/2+a/2)"
            "*G(3/2-c/2-a/2+b)))"
            " * pi*2^(-2*b)*G(-c+2+2*b)*G(c)",
        prov="Lavoie Math. Comp. 49, Eq(2) : T9",
    ),
    # ------------------------------------------------------------------
    # nonlinear-parameter entries B.53 - B.59
    # ------------------------------------------------------------------
    dict(
        id="B.53",
        upper="a, b, a-n-1", lower="a-d, a-n+1",
        derived=[("d", "n*(b-1)/(a-n-1)"), ("g", "(a-1)*(b-1)/(a-n-1)")],
        rhs="sin(pi*(b-a+d))*(n-a)*(b*n-a+1)*G(a-d)*G(2-a+g)*G(2-b-d)"
            " / ((b-a+n)*(a-1)*pi*G(2-d))",
        prov="Gessel & Stanton Eq(1.9) : T5",
    ),
    dict(
        id="B.54",
        upper="2, a, 1-n", lower="b, 2+d",
        derived=[("d", "n*(1-a)/(b-2)")],
        rhs="(a*n-b-n+2)*(b-1)/((1+a-b)*(b+n-2))",
        prov="Gessel & Stanton Eq(1.9) : T8",
    ),
    dict(
        id="B.55",
        upper="a, b, -d", lower="2-d, -1+a+b+n",
        derived=[("d", "(a-1)*(b-1)/n")],
        rhs="sin(pi*a)*(-1)^n*(n-a*b+a+b-1)*G(n)*G(-a-n+1)*G(-1+a+b+n)"
            " / (pi*G(b+n))",
        prov="Gessel & Stanton Eq(1.9) with n -> -1-n : T1",
    ),
    dict(
        id="B.56",
        upper="a, 2, b", lower="1+d, 1+a+n",
        derived=[("d", "(b*(a-1)+n)/(a+n-1)")],
        rhs="(n+a*b-b)*(a+n)/((n-b+a)*n)",
        prov="Gessel & Stanton Eq(1.9) with n -> -1-n : T2",
    ),
    dict(
        id="B.57",
        upper="a, b, 1+a+d", lower="2+a, 1+a+n",
        derived=[("d", "a*n/(1+a-b)"), ("g", "n*(b-1)/(1+a-b)")],
        rhs="-sin(pi*d)*(1+a)*G(2-b-g)*G(g)"
            " / (sin(pi*a)*G(-b+a+2+n)*G(-a-n))",
        prov="Gessel & Stanton Eq(1.9) with n -> -1-n : T4",
    ),
    dict(
        id="B.58",
        upper="a, b, a+n-1", lower="a-1+e, 1+a+n",
        derived=[("e", "(b*n+a-1)/(a+n-1)"),
                 ("g", "(b-1)*(a-1)/(a+n-1)"),
                 ("h", "n*(b-1)/(a+n-1)")],
        rhs="-sin(pi*(a-g))*(b*n+a-1)*(a+n)*G(1-g)*G(a+h)*G(2-a+g)"
            " / ((n-b+a)*pi*(a-1)*G(e+1))",
        prov="Gessel & Stanton Eq(1.9) with n -> -1-n : T5",
    ),
    dict(
        id="B.59",
        upper="2, a, n+1", lower="b, 2+d",
        derived=[("d", "n*(a-1)/(b-2)"), ("g", "(n+2-b)*(1+a-b)/(b-2)")],
        rhs="-(-1)^n*sin(pi*(b-a+d))*(a*n+b-2-n)*(b-1)"
            " / ((1+a-b)*(n+2-b)*sin(pi*g))",
        prov="Gessel & Stanton Eq(1.9) with n -> -1-n : T8",
        note="overall sign fixed numerically",
    ),
    # ------------------------------------------------------------------
    # Minton-type reductions B.60 - B.66
    # ------------------------------------------------------------------
    dict(
        id="B.60",
        upper="a, b, c", lower="2+a, a-n+1",
        rhs="(n*c*b-n*c-a*n*c-a*n*b+n+2*a*n-b*n-n^2*a+n*a^2)"
            " * G(2+a)*G(a+2-b-c-n)*G(a-n+1)*G(n)"
            " * Sum(k, 0, n, G(a+k+1-n-c)*G(-b-n+1+a+k)"
            " / (G(k+1)*G(a+1+k-n)))"
            " / (n*G(-b-n+1+a)*G(2+a-b)*G(2+a-c)*G(1+a-c-n))"
            " + G(a+2-b-c-n)*(-1-a)*G(a-n+1)"
            " / (G(-b-n+1+a)*n*G(1+a-c-n))",
        prov="Gessel & Stanton Eq.(5.16) : T2",
    ),
    dict(
        id="B.61",
        upper="a, b, 2", lower="c, a-n+1",
        rhs="-((a-n-1)*(a-n)*(a*b-b-1-2*n+a-a*c+n*c+c)*G(c)*G(n)"
            " * Sum(k, 0, n, G(a-1-n+k)*G(c-1-n-b+k)"
            " / (G(k+1)*G(c-n-1+k))))"
            " / ((a-n-b)*G(a)*G(c-b))"
            " - (a-n-1)*(a-n)*(c-1)/(n*(a-n-b))",
        prov="Gessel & Stanton Eq.(5.16) : T3",
    ),
    dict(
        id="B.62",
        upper="a, b, c", lower="a-n+1, c+b+n",
        rhs="-sin(pi*c)"
            " * Sum(L, 0, n-1, G(1-c-n+L)*G(b+L)/(G(L+1)*G(b-a+1+L)))"
            " * G(c+b+n)*G(b-a+n)*G(a-n+1)*G(n)"
            " / (pi*G(b)*G(a)*G(b+n))",
        prov="Prudnikov 7.4.4.23 : T6",
        note="overall sign fixed numerically",
    ),
    dict(
        id="B.63",
        upper="a, b, c", lower="b+1, -n+b+1",
        rhs="-(-1)^n*b"
            " * Sum(L, 0, n-1, G(-b+a+L)*G(-c-n+b+1+L)"
            " / (G(L+1)*G(-c-n+2+L)))"
            " * G(b-c-n+2-a)*G(-n+b+1)*G(n)*G(-c+1)"
            " / (G(a-b)*G(b-a+1)*G(b-c-n+1)*G(1+b-c))",
        prov="Prudnikov 7.4.4.23 : T1",
    ),
    dict(
        id="B.64",
        upper="a, b, 1", lower="c, -n+b+1",
        rhs="(c-1)"
            " * Sum(L, 0, n-1, G(a+L+1-c)*G(-n+b+L)"
            " / (G(L+1)*G(b-c-n+2+L)))"
            " * (-b+n)*G(n)*G(1+b-c)"
            " / (G(n+1-c+a)*G(b))",
        prov="Prudnikov 7.4.4.23 : T2",
    ),
    dict(
        id="B.65",
        upper="a, 2, b", lower="2+d, a-n+1",
        derived=[("d", "(b-1)*(a-1)/(a-n-1)")],
        rhs="(n-a)*(n-a*b+b)/((b-a+n)*n)",
        prov="Gessel & Stanton Eq(1.9) : T2",
    ),
    dict(
        id="B.66",
        upper="a, b, 1+a-d", lower="2+a, a-n+1",
        derived=[("d", "a*n/(1+a-b)"), ("g", "n*(b-1)/(1+a-b)")],
        rhs="(1+a)*sin(pi*d)*G(2-b+g)*G(-g)"
            " / (sin(pi*a)*G(-b+a+2-n)*G(n-a))",
        prov="Gessel & Stanton Eq(1.9) : T4",
    ),
    # ------------------------------------------------------------------
    # corrected / collected closed forms (source text section 3)
    # ------------------------------------------------------------------
    dict(
        id="EQ.1",
        upper="a, b, -n", lower="b+1/2, a-n+1/2",
        rhs="sqrt(pi)*G(a-n+1/2)*G(b+1/2)*G(1/2+b-a+n)"
            " / (G(a+1/2)*G(-n+1/2)*G(1/2+b-a)*G(1/2+b+n))",
        prov="corrected Prudnikov 7.4.4.19",
    ),
    dict(
        id="EQ.2",
        upper="1, 2, a", lower="3, b",
        rhs="-2*(b-1)/(a-1)"
            " + 2*(b-1)*(b-2)*(psi(0, b-2) - psi(0, b-a))/((a-1)*(a-2))",
        prov="corrected Prudnikov 7.4.4.43",
        note="right-hand side rederived from the Euler integral; the quoted"
             " trigamma form is the a=2 limit with shifted arguments and holds"
             " for no parameter choice as written",
    ),
    dict(
        id="EQ.3",
        upper="a, a-n, a-n", lower="a-n+1, a-n+1",
        rhs="pi*G(n)*(n-a)/(poch(1-a, n-1)*sin(pi*a))",
        prov="corrected Prudnikov 7.4.4.55",
    ),
    dict(
        id="EQ.4",
        upper="2, a, a", lower="a+2, a+2",
        rhs="-a^2*(a+1)^2*((2*a-1)*psi(1, a) - 2)",
        prov="corrected Prudnikov 7.4.4.67",
    ),
    dict(
        id="EQ.5",
        upper="3, a, a+1", lower="a+2, a+3",
        rhs="(1+a)^2*(2+a)*(-2*a^2*(a-1)*psi(1, a) + a*(2*a-1))/4",
        prov="corrected Prudnikov 7.4.4.71",
    ),
    dict(
        id="EQ.6",
        upper="a, a+1/2, b", lower="b+3/2-a, b-a+1",
        rhs="2^(-b)*sqrt(pi)*G(2+2*b-2*a)*G(2+b-4*a)"
            " / (G(2+2*b-4*a)*(2*a-1))"
            " * (1/(G(b/2)*G(3/2+b/2-2*a))"
            " - 1/(G(b/2+1/2)*G(1+b/2-2*a)))",
        prov="Prudnikov 7.4.4.25 variation 1",
    ),
    dict(
        id="EQ.7",
        upper="a, a+1/2, 1", lower="3/2-a-n/2, 2-a-n/2",
        rhs="G(3-n-2*a)*G(2-n-4*a)/G(3-n-4*a)"
            " * (2^(-4*a-n)*G(1-2*a)/G(2-n-4*a)"
            " + (1/(2*G(2*a)))"
            " * Sum(k, 0, n-1, (-1)^k*G(2*a+k)/G(2+k-n-2*a)))",
        prov="Prudnikov 7.4.4.25 variation 2",
    ),
    dict(
        id="EQ.8",
        upper="a, a+1/2, 1", lower="3/2-a+n/2, 1-a+n/2",
        rhs="G(1-2*a)*(1+n-2*a)/(1+n-4*a)"
            " * (2^(n-1-4*a)*G(1+n-2*a)/G(1+n-4*a)"
            " - (1/(2*G(2*a-n)))"
            " * Sum(k, 1, n-1, (-1)^k*G(2*a-n+k)/G(1+k-2*a)))",
        prov="Prudnikov 7.4.4.25 variation 3",
    ),
    dict(
        id="EQ.9",
        upper="1, n+1, a", lower="n+2, b",
        rhs="(n+1)*G(b)/G(a)"
            " * (G(a-n-1)*(psi(0, b-n-1) - psi(0, b-a))/G(b-n-1)"
            " - Sum(L, 0, n-1, G(a+L-n)/(G(b+L-n)*(L+1))))",
        prov="Ref. 11, Lemma 2.1",
    ),
    dict(
        id="EQ.10",
        upper="a, b, c", lower="n+b, c+1",
        rhs="poch(b, n)*G(c+1)*G(1-a)/(poch(b-c, n)*G(c+1-a))"
            " + c*G(b+n)*G(c-b+1-n)"
            " * Sum(L, 0, n-1, G(n-L-a)*(-1)^L"
            " / (G(b+n-a-L)*G(n-L)*G(c-b-n+2+L)))",
        prov="Ref. 11, Lemma 2.2",
    ),
    dict(
        id="EQ.11",
        upper="2*a, 1-a, -n", lower="2*a+2, -a-1/2-3*n/2",
        rhs="poch((n+3)/2, n)*(n+1)*(2*a+1)"
            " / (poch(3/2+n/2+a, n)*(2*a+n+1))",
        prov="Gessel & Stanton Eq(1.6)",
    ),
    dict(
        id="EQ.12",
        upper="-d+s+1, a-1, -n", lower="a+1, -h-d-n",
        derived=[("d", "s*a"), ("h", "s*n")],
        rhs="a*poch(1+s+h, n)*(n+1)/(poch(1+d+h, n)*(a+n))",
        prov="Gessel & Stanton Eq(1.9)",
    ),
    dict(
        id="EQ.12B",
        upper="-d+s+1, a-1, n+1", lower="a+1, h+s-d+n+1",
        derived=[("d", "s*a"), ("h", "s*n")],
        rhs="a*poch(1-h, -n-1)*(-n)/(poch(1+d-h-s, -n-1)*(a-n-1))",
        prov="Gessel & Stanton Eq(1.9) with n -> -n-1",
    ),
    dict(
        id="EQ.14",
        upper="2, 1+d-a, 1-n", lower="b+2, 2-a-h",
        derived=[("d", "s*b"), ("h", "s*n")],
        rhs="(b+1)*(a-1+h)*(a+h)*a*b*G(n)*G(1-h+n+b-d)"
            " * Sum(L, 0, n, G(-a-h+L)*G(b+L)/(G(L+1)*G(1-h+b-d+L)))"
            " / ((d-a)*(s-1)*G(b+n+1)*G(1-a-h+n))"
            " + b*(a+h)*(-1+a+h)*(b+1)/(n*(s-1)*(d-a)*(b+n))",
        prov="Gessel & Stanton Eq(5.16), Minton-reduced",
    ),
    dict(
        id="EQ.15",
        upper="a, b, c", lower="(a+b+1)/2, 2*c+1",
        rhs="2^(a+b)*G(a/2+b/2+1/2)*G(c+1/2)*G(c-a/2-b/2+1/2)"
            " / (G(1/2)*G(a+1)*G(b+1))"
            " * (G(a/2+1)*G(b/2+1)/(G(c-a/2+1/2)*G(c-b/2+1/2))"
            " - a*b*G(a/2+1/2)*G(b/2+1/2)/(4*G(c-a/2+1)*G(c-b/2+1)))",
        prov="Lavoie Math. Comp. 49, Eq(2)",
    ),
    # ------------------------------------------------------------------
    # conjectures
    # ------------------------------------------------------------------
    dict(
        id="CONJ.23",
        upper="2*a, 1-a, 2*n", lower="2*a+2, -a+3*n-1/2",
        rhs="(2*a+1)*G(a-n+1/2)*G(-3*n+5/2)"
            " / (3*G(3/2-3*n+a)*G(3/2-n))",
        ints={"n": ("n>=0",)},
        status="conjecture",
        prov="conjecture: Gessel & Stanton Eq(1.6) with n -> -2n",
    ),
    dict(
        id="CONJ.24",
        upper="2, a, b", lower="c, e1",
        derived=[("e1", "(2*c-3-a+a*b-b)/(c-2)")],
        rhs="-(c-1)*(c+a*b-b-a-1)/((c-1-b)*(a+1-c))",
        status="conjecture",
        prov="conjecture: Gessel & Stanton Eq(5.16) with continuous n",
    ),
    # ------------------------------------------------------------------
    # classical anchors and recursion-derived contiguous elements
    # ------------------------------------------------------------------
    dict(
        id="EXT.W00",
        upper="a, b, c", lower="(a+b+1)/2, 2*c",
        rhs="sqrt(pi)*G(c+1/2)*G(a/2+b/2+1/2)*G(c+1/2-a/2-b/2)"
            " / (G(a/2+1/2)*G(b/2+1/2)*G(c+1/2-a/2)*G(c+1/2-b/2))",
        prov="external: classical theorem (Watson)",
    ),
    dict(
        id="EXT.X00",
        upper="a, b, c", lower="1+a-b, 1+a-c",
        rhs="G(1+a/2)*G(1+a-b)*G(1+a-c)*G(1+a/2-b-c)"
            " / (G(1+a)*G(1+a/2-b)*G(1+a/2-c)*G(1+a-b-c))",
        prov="external: classical theorem (Dixon)",
    ),
    dict(
        id="C.3",
        upper="a, b, c", lower="a-b, a-c",
        rhs="2^(-a)*sqrt(pi)*G(a-c)*G(a-b)*G(a/2-c-b)"
            " / (G(a/2+1/2)*G(a/2-b)*G(a/2-c)*G(a-b-c))"
            " + 2^(-a)*sqrt(pi)*G(a-c)*G(a-b)*G(a/2-c-b+1/2)"
            " / (G(a/2)*G(1/2+a/2-b)*G(a-b-c)*G(1/2+a/2-c))",
        prov="obtained by recursion (Dixon family, m=-1, n=0)",
    ),
    dict(
        id="C.4",
        upper="a, b, c", lower="3+a-b, 3+a-c",
        rhs="-2*sqrt(pi)*G(7/2+a/2-b-c)*G(3+a-c)*G(3+a-b)"
            " / ((-2+b)*(-2+c)*2^a*(b-1)*(c-1)*G(a+3-b-c)"
            "*G(3/2+a/2-c)*G(3/2+a/2-b)*G(a/2))"
            " + ((1/4)*(2+a-2*c)*(-2*b+a+2)*(a+5-2*c-2*b)*sqrt(pi)"
            " / ((-2+b)*(-2+c)*2^a*(b-1)*(c-1))"
            " - (1/8)*(-2*b-2*c+a+6)*sqrt(pi)/((-2+b)*(-2+c)*2^(-2+a)))"
            " * G(2+a/2-c-b)*G(3+a-b)*G(3+a-c)"
            " / (G(a/2+1/2)*G(a+3-b-c)*G(a/2+2-c)*G(a/2-b+2))",
        prov="obtained by recursion (Dixon family, m=2, n=0)",
        note="grouping of the printed right side restored numerically",
    ),
    dict(
        id="C.5",
        upper="a, b, c", lower="(a+b)/2, 2*c",
        rhs="(1/(G(1/2-a/2+c)*G(c-b/2)*G(b/2)*G(a/2+1/2))"
            " + 1/(G(1/2-b/2+c)*G(b/2+1/2)*G(a/2)*G(c-a/2)))"
            " * G(-a/2-b/2+c)*G(a/2+b/2)*G(c+1/2)*sqrt(pi)",
        prov="obtained by recursion (Watson family, m=-1, n=0)",
    ),
    dict(
        id="C.6",
        upper="a, b, c", lower="(a+b+3)/2, 2*c",
        rhs="(-(a^2-2*c*a-2*c*b-1+2*c+b^2)"
            " / (G(a/2+1/2)*G(1/2-a/2+c)*G(1/2-b/2+c)*G(b/2+1/2))"
            " - 8/(G(b/2)*G(a/2)*G(c-b/2)*G(c-a/2)))"
            " * sqrt(pi)*G(-1/2-a/2-b/2+c)*G(a/2+b/2+3/2)*G(c+1/2)"
            " / ((-1-a+b)*(-a+b+1))",
        prov="obtained by recursion (Watson family, m=2, n=0)",
    ),
]
