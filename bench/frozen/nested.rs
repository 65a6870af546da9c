tower {
  d1^2 = t;
  d2^2 = d1 + 1;
}
param { x = t; y = d1*d2; }
