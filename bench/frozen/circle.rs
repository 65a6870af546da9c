tower { d^2 = 1 - t^2; }
param { x = t; y = d; }
