tower { d^2 = t^2 - 1; }
param { x = 0; y = t - d; }
